// Broadcast, the rooted collective, with conventional flat algorithms
// (Sec. 7: "we plan to address other collectives"). The multi-HCA aware
// hierarchical bcast is core::bcast_hierarchy (core/hierarchy.hpp).
#pragma once

#include <cstddef>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::coll {

/// Binomial-tree broadcast from `root`: log2(N) rounds, each holder
/// forwarding to the peer at the current distance. `data` is the payload
/// on every rank (input at root, output elsewhere).
sim::Task<void> bcast_binomial(mpi::Comm& comm, int my, int root,
                               hw::BufView data);

/// Scatter-allgather broadcast (van de Geijn): scatter the message as a
/// binomial tree of halves, then ring-allgather the pieces. Better than
/// binomial for large messages (2x less root bandwidth). Requires
/// data.len divisible by comm.size().
sim::Task<void> bcast_scatter_allgather(mpi::Comm& comm, int my, int root,
                                        hw::BufView data);

}  // namespace hmca::coll
