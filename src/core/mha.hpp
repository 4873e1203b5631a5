// Top-level MHA collective entry points: the tuned dispatchers a user (or
// the `mha` library profile) calls, mirroring how MPI_Allgather /
// MPI_Allreduce would dispatch inside an MPI library with the paper's
// designs integrated.
#pragma once

#include <cstddef>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "sim/task.hpp"

namespace hmca::core {

/// Intra-node messages below this go through the conventional small-
/// message path (RD/Bruck over shared memory) instead of MHA-intra.
inline constexpr std::size_t kIntraSmallThreshold = 16384;
/// Allreduce vectors at or below this use Recursive Doubling; larger ones
/// use Ring-Allreduce with the MHA Allgather phase (Sec. 5.4).
inline constexpr std::size_t kAllreduceRdThreshold = 32768;
/// Alltoall per-pair blocks at or below this route through the
/// hierarchical leader exchange (alpha-dominated regime, where bundling
/// per-node wins); larger blocks go direct full-mesh.
inline constexpr std::size_t kAlltoallHierThreshold = 16384;
/// Reduce-scatter vectors at or below this use recursive halving when
/// the shape allows it (power-of-two world, divisible count); larger or
/// irregular ones use the ring.
inline constexpr std::size_t kReduceScatterRhThreshold = 32768;

/// MHA Allgather dispatcher: MHA-intra for single-node large messages,
/// MHA-inter (hierarchical, model-selected RD/Ring phase 2) across nodes,
/// conventional algorithms for tiny messages.
sim::Task<void> mha_allgather(mpi::Comm& comm, int my, hw::BufView send,
                              hw::BufView recv, std::size_t msg,
                              bool in_place = false);

/// MHA Allreduce: ring reduce-scatter + MHA Allgather of the reduced
/// chunks; RD for small vectors or when the count does not split evenly.
sim::Task<void> mha_allreduce(mpi::Comm& comm, int my, hw::BufView data,
                              std::size_t count, mpi::Dtype dtype,
                              mpi::ReduceOp op);

/// MHA Alltoall dispatcher: hierarchical leader exchange for small blocks
/// on multi-node worlds, planner direct full-mesh otherwise.
sim::Task<void> mha_alltoall(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv, std::size_t msg);

/// MHA Reduce-scatter dispatcher: recursive halving for small
/// power-of-two-friendly vectors, ring otherwise.
sim::Task<void> mha_reduce_scatter(mpi::Comm& comm, int my, hw::BufView data,
                                   std::size_t count, mpi::Dtype dtype,
                                   mpi::ReduceOp op);

}  // namespace hmca::core
