// Multi-HCA aware hierarchical Allgatherv: the paper's Sec. 3 designs
// generalized to variable per-rank contributions (MPI_Allgatherv). It runs
// the engine of allgather_hierarchy on the real block layout: node blocks
// become variable-size slices of the receive buffer, and MHA-intra's Eq. 1
// offload d, evaluated at the node's mean block, counts whole blocks from
// the far end of the schedule with the boundary block split byte-exactly.
#pragma once

#include "coll/allgatherv.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::core {

/// Hierarchical MHA Allgatherv over the world communicator: per-node
/// MHA-intra aggregation (CMA direct spread, the d farthest blocks read by
/// the HCAs), variable-size inter-leader Ring over all rails, overlapped
/// shared-memory distribution. On a uniform layout it is the registry's
/// `mha_inter_ring`, bit for bit.
sim::Task<void> allgatherv_mha(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv,
                               const coll::VarLayout& layout,
                               bool in_place = false);

}  // namespace hmca::core
