// Multi-HCA aware hierarchical Allgatherv: the paper's Sec. 3 designs
// generalized to variable per-rank contributions (MPI_Allgatherv). The
// same three phases as MHA-inter; node chunks become variable-size slices
// of the receive buffer and the offload split works on a byte budget
// rather than a block count.
#pragma once

#include "coll/allgatherv.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::core {

/// Hierarchical MHA Allgatherv over the world communicator: per-node
/// aggregation (CMA direct spread with the far end of the schedule offloaded
/// to the HCAs until the Eq. 1 byte budget is spent), variable-size
/// inter-leader Ring over all rails, overlapped shared-memory distribution.
sim::Task<void> allgatherv_mha(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv,
                               const coll::VarLayout& layout,
                               bool in_place = false);

}  // namespace hmca::core
