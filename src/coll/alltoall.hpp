// Alltoall / Alltoallv: the complete-exchange collectives (MPI_Alltoall,
// MPI_Alltoallv). Every rank holds one block per destination in its send
// buffer and receives one block per source into its recv buffer.
//
// Each algorithm is written once, over variable blocks. The fixed-size
// entries run their v-variant on AlltoallvLayout::uniform, which stores
// no per-block state. The direct variant is a primitive-IR Program
// (coll/prim/builders.hpp) that the Planner lowers onto the
// chunk-granular dataflow engine; the pairwise variant is a coroutine of
// n-1 exchange rounds.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::coll {

/// Pluggable alltoall signature: `msg` bytes per (source, destination)
/// block; `send` and `recv` each hold comm_size * msg bytes.
using AlltoallFn = std::function<sim::Task<void>(
    mpi::Comm&, int my, hw::BufView send, hw::BufView recv, std::size_t msg)>;

/// Block layout of an Alltoallv: the pairwise byte-count matrix plus the
/// exclusive prefix offsets into each rank's buffers. `count(i, j)` is
/// what rank i sends to rank j; rank i's send buffer lays its blocks out
/// in destination order, rank j's recv buffer in source order (the
/// standard MPI_Alltoallv convention). `from_counts` stores the matrix
/// and its offsets (O(n^2)); `uniform` stores only the block size and
/// derives every accessor from it (O(1)).
struct AlltoallvLayout {
  int nranks = 0;

  static AlltoallvLayout from_counts(int nranks,
                                     std::vector<std::size_t> counts);
  /// Every block `msg` bytes: the layout of a fixed-size Alltoall.
  static AlltoallvLayout uniform(int nranks, std::size_t msg);

  std::size_t count(int i, int j) const {
    return uniform_ ? msg_ : counts_.at(idx(i, j));
  }
  /// Offset of the block for destination j in rank i's send buffer.
  std::size_t send_offset(int i, int j) const {
    return uniform_ ? block_offset(j) : send_offsets_.at(idx(i, j));
  }
  /// Offset of the block from source i in rank j's recv buffer.
  std::size_t recv_offset(int i, int j) const {
    return uniform_ ? block_offset(i) : recv_offsets_.at(idx(i, j));
  }
  std::size_t send_total(int r) const {
    return uniform_ ? block_offset(nranks)
                    : send_totals_.at(static_cast<std::size_t>(r));
  }
  std::size_t recv_total(int r) const {
    return uniform_ ? block_offset(nranks)
                    : recv_totals_.at(static_cast<std::size_t>(r));
  }
  /// Total bytes moved by the whole exchange (the selector's size metric).
  std::size_t total() const { return total_; }

 private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(nranks) +
           static_cast<std::size_t>(j);
  }
  std::size_t block_offset(int k) const {
    return static_cast<std::size_t>(k) * msg_;
  }
  bool uniform_ = false;
  std::size_t msg_ = 0;  ///< the block size of a uniform layout
  std::vector<std::size_t> counts_;  ///< counts_[i * nranks + j]: bytes i -> j
  std::vector<std::size_t> send_offsets_, recv_offsets_;
  std::vector<std::size_t> send_totals_, recv_totals_;
  std::size_t total_ = 0;
};

/// Pluggable alltoallv signature. The layout is taken by reference — the
/// caller keeps it alive across the await (same convention as
/// AllgathervFn).
using AlltoallvFn = std::function<sim::Task<void>(
    mpi::Comm&, int my, hw::BufView send, hw::BufView recv,
    const AlltoallvLayout&)>;

/// Full-mesh exchange: alltoallv_direct on `AlltoallvLayout::uniform`.
/// All n-1 peer transfers are in flight at once, chunk-striped by the
/// dataflow engine. Latency-optimal; n*(n-1) concurrent transfers.
sim::Task<void> alltoall_direct(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, std::size_t msg);

/// Pairwise exchange: alltoallv_pairwise on `AlltoallvLayout::uniform`.
sim::Task<void> alltoall_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, std::size_t msg);

/// Planner-backed full-mesh alltoallv (prim::alltoallv_direct).
sim::Task<void> alltoallv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                 hw::BufView recv,
                                 const AlltoallvLayout& layout);

/// Classic pairwise-exchange schedule: n-1 rounds, round s sends to
/// (r + s) mod n and receives from (r - s) mod n. A round with both blocks
/// nonempty is one sendrecv; one with a single nonempty block is a plain
/// send or recv. Bounded concurrency.
sim::Task<void> alltoallv_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                   hw::BufView recv,
                                   const AlltoallvLayout& layout);

}  // namespace hmca::coll
