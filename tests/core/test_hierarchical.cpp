// The hierarchical (MHA-inter) Allgather configured by depth-2 specs:
// correctness across node transports (phase 1), cluster transports
// (phase 2) and overlap settings, plus the paper's structural claims
// (overlap helps; Ring overlaps better than RD for large chunks).
#include <gtest/gtest.h>

#include <tuple>

#include "core/hierarchy.hpp"
#include "osu/harness.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::core {
namespace {

using hmca::testing::check_allgather;

// Node transports pick phase 1: MHA-intra, plain CMA direct spread
// (MHA-intra with the offload off) or the double-copy shm gather. Cluster
// transports pick phase 2: RD, Ring or the Fig. 8 resolution (auto).
using enum LevelTransport;

coll::AllgatherFn fn_hier(LevelTransport node = kAuto,
                          LevelTransport cluster = kAuto,
                          bool overlap = true) {
  return [node, cluster, overlap](mpi::Comm& c, int r, hw::BufView s,
                                  hw::BufView rv, std::size_t m, bool ip) {
    return allgather_hierarchy(c, r, s, rv, m, ip,
                               HierarchySpec::mha(node, cluster), overlap);
  };
}

// ---- Correctness sweep: phase-1 x phase-2 x overlap x topology ----

// The sweep's phase-1 axis. Its values (and Phase2Algo's) appear in the
// generated test names, so they keep their own small enum.
enum class Phase1 { kMha, kCma, kShm };

LevelTransport node_transport(Phase1 p1) {
  return p1 == Phase1::kShm   ? kShm
         : p1 == Phase1::kCma ? kCma
                              : kMhaIntra;
}

LevelTransport cluster_transport(Phase2Algo p2) {
  return p2 == Phase2Algo::kRD     ? kRd
         : p2 == Phase2Algo::kRing ? kRing
                                   : kAuto;
}

using Case = std::tuple<Phase1, Phase2Algo, bool, int, int, std::size_t>;

class HierSweep : public ::testing::TestWithParam<Case> {};

TEST_P(HierSweep, GathersCorrectly) {
  auto [p1, p2, overlap, nodes, ppn, msg] = GetParam();
  check_allgather(fn_hier(node_transport(p1), cluster_transport(p2), overlap),
                  nodes, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Ring, HierSweep,
    ::testing::Combine(
        ::testing::Values(Phase1::kMha, Phase1::kCma, Phase1::kShm),
        ::testing::Values(Phase2Algo::kRing),
        ::testing::Values(true, false),
        ::testing::Values(2, 3),    // incl. non-power-of-two nodes
        ::testing::Values(1, 2, 4),
        ::testing::Values(std::size_t{512}, std::size_t{65536})));

INSTANTIATE_TEST_SUITE_P(
    Rd, HierSweep,
    ::testing::Combine(
        ::testing::Values(Phase1::kMha, Phase1::kShm),
        ::testing::Values(Phase2Algo::kRD),
        ::testing::Values(true, false),
        ::testing::Values(2, 4),
        ::testing::Values(1, 3),
        ::testing::Values(std::size_t{512}, std::size_t{65536})));

INSTANTIATE_TEST_SUITE_P(
    Auto, HierSweep,
    ::testing::Combine(::testing::Values(Phase1::kMha),
                       ::testing::Values(Phase2Algo::kAuto),
                       ::testing::Values(true),
                       ::testing::Values(2, 4, 5),
                       ::testing::Values(2),
                       ::testing::Values(std::size_t{256},
                                         std::size_t{262144})));

TEST(Hier, InPlace) {
  check_allgather(fn_hier(kMhaIntra, kRing), 2, 2, 4096, true);
}

TEST(Hier, SingleNodeDegeneratesToPhase1) {
  check_allgather(fn_hier(), 1, 4, 2048);
}

TEST(Hier, NamedEntryPoints) {
  // The historical named designs as depth-2 specs: MHA-inter is the
  // all-auto spec, single-leader is shm gather + RD (Ring on
  // non-power-of-two node counts).
  check_allgather(fn_hier(), 2, 2, 8192);
  check_allgather(fn_hier(kShm, kRd), 2, 2, 8192);
  check_allgather(fn_hier(kShm, kRing), 3, 2, 8192);  // non-p2 nodes -> Ring
}

TEST(Hier, ResolvePhase2) {
  // Non-power-of-two node counts can never use RD.
  EXPECT_EQ(resolve_phase2(5, 32, 4096, Phase2Algo::kAuto),
            Phase2Algo::kRing);
  // Explicit requests pass through.
  EXPECT_EQ(resolve_phase2(8, 32, 4096, Phase2Algo::kRD),
            Phase2Algo::kRD);
  // The Fig. 8 shape: RD below the node-chunk crossover, Ring above.
  EXPECT_EQ(resolve_phase2(16, 32, 256, Phase2Algo::kAuto),
            Phase2Algo::kRD);
  EXPECT_EQ(resolve_phase2(16, 32, 1u << 20, Phase2Algo::kAuto),
            Phase2Algo::kRing);
  // Crossover sits exactly at the documented chunk threshold.
  const auto msg_at = kRdRingCrossoverChunk / 32;
  EXPECT_EQ(resolve_phase2(16, 32, msg_at, Phase2Algo::kAuto),
            Phase2Algo::kRD);
  EXPECT_EQ(resolve_phase2(16, 32, msg_at * 2, Phase2Algo::kAuto),
            Phase2Algo::kRing);
}

// ---- Performance/structure properties ----

double hier_latency(int nodes, int ppn, std::size_t msg,
                    const coll::AllgatherFn& fn) {
  return osu::measure_allgather(hw::ClusterSpec::thor(nodes, ppn), fn, msg);
}

TEST(HierPerf, OverlapBeatsStrictPhases) {
  // The paper's core Sec. 3.2 claim: overlapping phase 3 with phase 2 wins
  // for bandwidth-bound configurations.
  const auto on = fn_hier(kMhaIntra, kRing, true);
  const auto off = fn_hier(kMhaIntra, kRing, false);
  const double t_on = hier_latency(8, 8, 65536, on);
  const double t_off = hier_latency(8, 8, 65536, off);
  EXPECT_LT(t_on, 0.9 * t_off);
}

TEST(HierPerf, RingOverlapsBetterThanRdForLargeChunks) {
  // Fig. 8: Ring wins for large per-process messages, RD for small.
  const auto ring = fn_hier(kMhaIntra, kRing);
  const auto rd = fn_hier(kMhaIntra, kRd);
  const double t_ring_large = hier_latency(16, 8, 262144, ring);
  const double t_rd_large = hier_latency(16, 8, 262144, rd);
  EXPECT_LT(t_ring_large, t_rd_large);

  const double t_ring_small = hier_latency(16, 8, 128, ring);
  const double t_rd_small = hier_latency(16, 8, 128, rd);
  EXPECT_LT(t_rd_small, t_ring_small);
}

TEST(HierPerf, MhaIntraPhase1BeatsShmGather) {
  const auto mha = fn_hier(kMhaIntra, kRing);
  const auto shm = fn_hier(kShm, kRing);
  const double t_mha = hier_latency(2, 4, 1u << 20, mha);
  const double t_shm = hier_latency(2, 4, 1u << 20, shm);
  EXPECT_LT(t_mha, t_shm);
}

}  // namespace
}  // namespace hmca::core
