// Program builders: the collective algorithms expressed as primitive
// programs (program.hpp). Each returns a validated-shape SPMD Program; the
// Planner builds it once per collective call and lowers each rank's share.
// None of them talk to the network directly.
//
// Buffer contracts (matching the collective function signatures that call
// them):
//
//   alltoallv_direct   send space holds this rank's outgoing blocks in
//       destination order, recv space receives one block per source rank
//       in source order, at the offsets the AlltoallvLayout gives.
//   reduce_scatter_ring / reduce_scatter_rh   in-place over the recv
//       space; on return rank r owns the fully-reduced element range
//       `chunk_range(count, nranks, r)` (ring) or block r (rh).
//   alltoall_hier   leader-exchange over one partition of ranks into
//       groups: members funnel full send buffers to their leader, leaders
//       exchange pre-bundled slices, reassemble, and scatter.
//   allreduce_rs_ag   composed allreduce over an n-level hierarchy:
//       reduce up each level to its leader, ring reduce-scatter +
//       shard/unshard allgather across the top leaders, multicast back
//       down. In-place over the recv space.
#pragma once

#include <cstddef>
#include <vector>

#include "coll/alltoall.hpp"
#include "coll/prim/program.hpp"
#include "mpi/datatype.hpp"

namespace hmca::coll::prim {

/// Full-mesh alltoallv: one transfer per nonempty (src, dst) block, local
/// copies included. Block sizes and send/recv offsets are the layout's
/// (coll/alltoall.hpp), so a uniform layout plans a fixed-size alltoall.
/// The program's space extents are the maxima of the layout's per-rank
/// totals — every rank's own transfers stay inside its actual buffer
/// extents.
Program alltoallv_direct(const AlltoallvLayout& layout);

/// Hierarchical leader-exchange alltoall over one partition of the world
/// into `groups` (e.g. nodes). Four phases: gather (members -> leader
/// scratch), exchange (leader -> leader, slices pre-bundled per
/// destination group), assemble (leader-local reassembly per member), and
/// scatter (leader -> members). Scratch cost: 3 * max_group * n * msg.
Program alltoall_hier(const std::vector<PlanGroup>& groups, int nranks,
                      std::size_t msg);

/// Ring reduce-scatter over element chunks `chunk_range(count, n, r)` —
/// applicable to every count (uneven chunks allowed, zero-length chunks
/// at the tail become no-ops).
Program reduce_scatter_ring(int nranks, std::size_t count, mpi::Dtype dtype,
                            mpi::ReduceOp rop);

/// Recursive-halving reduce-scatter: log2(n) exchange stages over
/// shrinking block windows. Requires power-of-two `nranks` and
/// `count % nranks == 0`; rank r ends owning block r.
Program reduce_scatter_rh(int nranks, std::size_t count, mpi::Dtype dtype,
                          mpi::ReduceOp rop);

/// Composed allreduce = reduce-up + (ring reduce-scatter, shard/unshard
/// allgather) across top-level leaders + multicast-down, over an n-level
/// `levels` hierarchy (see PlanLevels). Works at any depth, including a
/// single flat level (pure reduce-scatter + allgather).
Program allreduce_rs_ag(const PlanLevels& levels, std::size_t count,
                        mpi::Dtype dtype, mpi::ReduceOp rop);

}  // namespace hmca::coll::prim
