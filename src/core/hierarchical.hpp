// The engine of the hierarchical multi-HCA aware Allgather (paper
// Sec. 3.2); its entry point is allgather_hierarchy in core/hierarchy.hpp,
// configured by a HierarchySpec.
//
// Three phases, with phases 2 and 3 overlapped through a shared-memory
// region and per-chunk ready counters (Fig. 6):
//   1. node-level aggregation: MHA-intra (plain CMA Direct Spread with a
//      `cma` node transport), a shared-memory gather (`shm`), or a staged
//      NodePlan (depth >= 3),
//   2. inter-leader exchange of M*L node blocks over all rails, using
//      Recursive Doubling or Ring (Fig. 7; the cluster transport),
//   3. node-level distribution: the leader copies each arriving chunk into
//      shared memory and publishes it; members copy published chunks out
//      while the next inter-node transfer is already in flight.
//
// Phases 2 and 3 of the overlapped path are built by the shared exchange
// builders of coll/allgather.hpp: coll::build_ring_exchange or
// coll::build_rd_exchange with the leader's publish, and
// coll::build_publish_drain on the members.
//
// The same engine, configured by other specs, reproduces the single-leader
// prior design of Mamidala et al. [19] (shm gather + RD, overlap), the
// Sec. 7 NUMA-aware design (a socket NodePlan) and the overlap ablation
// (overlap = false: strictly sequential phases). The overlapped path runs
// over block layouts, so core::allgatherv_mha (core/mha_allgatherv.hpp) is
// the same engine on variable blocks.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::core {

enum class Phase2Algo {
  kAuto,  ///< model-driven choice between RD and Ring (Sec. 4)
  kRD,
  kRing,
};

/// Intra-node aggregation plan of an n-level hierarchy, built by
/// core/hierarchy.hpp from a resolved HierarchySpec of depth >= 3 (the
/// Sec. 7 socket < node < cluster design included). Each stage partitions
/// the node's local ranks into contiguous groups: stage k's `firsts` lists
/// the first local rank of every group, ascending and starting at 0 (the
/// final boundary, ppn, is implicit). Stages run innermost to outermost —
/// MHA-intra inside each innermost group, then, per stage, the previous
/// stage's group leaders pull their sibling groups' blocks through a
/// shared-memory segment homed on their own group, so each inter-group
/// byte crosses the group boundary (UPI on socket stages) once. Spans may
/// be uneven; a one-rank group only seeds its own block.
struct NodePlan {
  std::vector<std::vector<int>> stages;  ///< innermost -> outermost
};

/// Node-chunk size (msg * PPN) at which the kAuto selector switches from
/// RD to Ring in phase 2. This is the Fig. 8 crossover *measured on this
/// substrate* (bench/fig08_rd_vs_ring): RD's fewer startups win below it,
/// Ring's finer-grained distribution overlap wins above it.
inline constexpr std::size_t kRdRingCrossoverChunk = 16 * 1024;

/// Resolve kAuto for a given topology and per-process message size.
/// RD while the node chunk is startup-dominated, Ring beyond the Fig. 8
/// crossover; Ring whenever RD is inapplicable (non-power-of-two nodes).
Phase2Algo resolve_phase2(int nodes, int ppn, std::size_t msg,
                          Phase2Algo requested);

}  // namespace hmca::core
