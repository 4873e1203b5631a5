// Alltoall / Alltoallv: the complete-exchange collectives (MPI_Alltoall,
// MPI_Alltoallv). Every rank holds one block per destination in its send
// buffer and receives one block per source into its recv buffer.
//
// The planner-backed variants here are the first consumers of the
// primitive IR (coll/prim/): the algorithm is a Program (builders.hpp)
// and the Planner lowers it onto the chunk-granular dataflow engine. The
// pairwise variant is a classic sendrecv schedule kept as a legacy
// reference implementation.
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

/// Block layout of an Alltoallv: the full pairwise byte-count matrix plus
/// the derived exclusive prefix offsets into each rank's buffers.
/// `count(i, j)` is what rank i sends to rank j; rank i's send buffer lays
/// its blocks out in destination order, rank j's recv buffer in source
/// order (the standard MPI_Alltoallv convention).
struct AlltoallvLayout {
  int nranks = 0;
  std::vector<std::size_t> counts;  ///< counts[i * nranks + j]: bytes i -> j

  static AlltoallvLayout from_counts(int nranks,
                                     std::vector<std::size_t> counts);

  std::size_t count(int i, int j) const {
    return counts.at(idx(i, j));
  }
  /// Offset of the block for destination j in rank i's send buffer.
  std::size_t send_offset(int i, int j) const {
    return send_offsets_.at(idx(i, j));
  }
  /// Offset of the block from source i in rank j's recv buffer.
  std::size_t recv_offset(int i, int j) const {
    return recv_offsets_.at(idx(i, j));
  }
  std::size_t send_total(int r) const {
    return send_totals_.at(static_cast<std::size_t>(r));
  }
  std::size_t recv_total(int r) const {
    return recv_totals_.at(static_cast<std::size_t>(r));
  }
  /// Total bytes moved by the whole exchange (the selector's size metric).
  std::size_t total() const { return total_; }

 private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(nranks) +
           static_cast<std::size_t>(j);
  }
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

/// Planner-backed full-mesh exchange: prim::alltoallv_direct on a uniform
/// count matrix. All n-1 peer transfers are in flight at once,
/// chunk-striped by the dataflow engine. Latency-optimal; n*(n-1)
/// concurrent transfers.
sim::Task<void> alltoall_direct(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, std::size_t msg);

/// Classic pairwise-exchange schedule: n-1 sendrecv rounds, round s pairs
/// rank r with (r + s) mod n. Bounded concurrency, legacy coroutine.
sim::Task<void> alltoall_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, std::size_t msg);

/// Planner-backed full-mesh alltoallv (prim::alltoallv_direct).
sim::Task<void> alltoallv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                 hw::BufView recv,
                                 const AlltoallvLayout& layout);

/// Pairwise-exchange alltoallv: same schedule as alltoall_pairwise over
/// variable block sizes.
sim::Task<void> alltoallv_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                   hw::BufView recv,
                                   const AlltoallvLayout& layout);

}  // namespace hmca::coll
