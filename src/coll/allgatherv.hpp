// Allgatherv: the variable-block-size generalization of Allgather
// (MPI_Allgatherv). Real applications (graph partitioners, particle codes,
// the BPMF workloads the paper's introduction cites) rarely contribute
// equal blocks, so a production collective stack needs these.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::coll {

/// Block layout of an Allgatherv: per-rank byte counts and the derived
/// exclusive prefix offsets into the receive buffer.
struct VarLayout {
  std::vector<std::size_t> counts;   ///< bytes contributed by each rank
  std::vector<std::size_t> offsets;  ///< recv offset of each rank's block
  std::size_t total = 0;

  static VarLayout from_counts(std::vector<std::size_t> counts);
  /// `n` blocks of `count` bytes: the layout of a fixed-size Allgather.
  static VarLayout uniform(int n, std::size_t count);
  std::size_t count(int r) const { return counts.at(static_cast<std::size_t>(r)); }
  std::size_t offset(int r) const { return offsets.at(static_cast<std::size_t>(r)); }
};

/// Throws std::invalid_argument unless `my` is a rank of `comm`, `layout`
/// has one block per rank, `recv` holds `layout.total` bytes and (unless
/// in place) `send` holds `layout.count(my)`.
void check_allgatherv_args(const mpi::Comm& comm, int my,
                           const hw::BufView& send, const hw::BufView& recv,
                           const VarLayout& layout, bool in_place);

/// Ring Allgatherv: N-1 neighbour steps forwarding variable-size blocks,
/// each split into pipelined chunks (coll::build_ring_exchange). `send`
/// holds the caller's `layout.count(my)` bytes (ignored when in_place: the
/// contribution already sits at its recv offset); `recv` holds
/// `layout.total` bytes. allgather_ring is this on a uniform layout.
sim::Task<void> allgatherv_ring(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, const VarLayout& layout,
                                bool in_place = false);

/// Direct-spread Allgatherv: every rank posts all receives and sends up
/// front. Latency-optimal for small irregular blocks. allgather_direct is
/// this on a uniform layout.
sim::Task<void> allgatherv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, const VarLayout& layout,
                                  bool in_place = false);

}  // namespace hmca::coll
