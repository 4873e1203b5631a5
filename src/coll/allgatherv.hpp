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
  std::size_t count(int r) const { return counts.at(static_cast<std::size_t>(r)); }
  std::size_t offset(int r) const { return offsets.at(static_cast<std::size_t>(r)); }
};

/// Copy the caller's `layout.count(my)` bytes into its recv block (one CPU
/// copy), or do nothing for in-place operation or an empty block.
sim::Task<void> seed_own_block(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv, const VarLayout& layout,
                               bool in_place);

/// Ring Allgatherv: N-1 neighbour steps forwarding variable-size blocks.
/// `send` holds the caller's `layout.count(my)` bytes (ignored when
/// in_place: the contribution already sits at its recv offset); `recv`
/// holds `layout.total` bytes.
sim::Task<void> allgatherv_ring(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, const VarLayout& layout,
                                bool in_place = false);

/// Direct-spread Allgatherv: every rank posts all receives and sends up
/// front. Latency-optimal for small irregular blocks.
sim::Task<void> allgatherv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, const VarLayout& layout,
                                  bool in_place = false);

}  // namespace hmca::coll
