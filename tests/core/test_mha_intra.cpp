// MHA-intra: correctness across offload counts, and the performance
// properties the paper claims (HCA offload speeds up intra-node Allgather;
// the benefit shrinks as PPN grows — Sec. 5.2).
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <tuple>

#include "core/mha_intra.hpp"
#include "core/tuner.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::core {
namespace {

using hmca::testing::check_allgather;

coll::AllgatherFn fn_mha_intra(double offload) {
  return [offload](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                   std::size_t m, bool ip) {
    return allgather_mha_intra(c, r, s, rv, m, ip, offload);
  };
}

// ---- Correctness sweep over (ppn, msg, offload) on one node ----

using Case = std::tuple<int, std::size_t, double>;

class MhaIntraSweep : public ::testing::TestWithParam<Case> {};

TEST_P(MhaIntraSweep, GathersCorrectly) {
  auto [ppn, msg, offload] = GetParam();
  check_allgather(fn_mha_intra(offload), 1, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MhaIntraSweep,
    ::testing::Values(Case{2, 1024, 0.0}, Case{2, 1024, 1.0},
                      Case{2, 1024, 0.5},       // fractional: split block
                      Case{4, 4096, 0.0}, Case{4, 4096, 1.0},
                      Case{4, 4096, 3.0}, Case{4, 4096, 1.75},
                      Case{4, 262144, 2.25},
                      Case{7, 512, 3.5},        // odd PPN, fractional
                      Case{8, 65536, -1.0},     // analytic offload
                      Case{3, 100, 1.37},       // odd sizes, odd fraction
                      Case{3, 100, 2.0}));

TEST(MhaIntra, InPlace) { check_allgather(fn_mha_intra(1), 1, 4, 2048, true); }

TEST(MhaIntra, SingleProcessIsTrivial) {
  check_allgather(fn_mha_intra(-1), 1, 1, 512);
}

TEST(MhaIntra, RejectsMultiNodeCommunicator) {
  EXPECT_THROW(check_allgather(fn_mha_intra(0), 2, 2, 512),
               std::invalid_argument);
}

// ---- Exact pins: the Eq. 1 split and the plain CMA baseline ----
//
// Latency (hex float) and dispatched events on one 8-process node at
// 64 KiB: the analytic offload is fractional there, so the boundary block
// splits into a CMA and an HCA share; offload 0 is pure CMA Direct Spread.

TEST(MhaIntraPin, FractionalAnalyticOffload) {
  const double d = analytic_offload(hw::ClusterSpec::thor(1, 8), 8, 65536);
  EXPECT_NE(d, static_cast<double>(static_cast<int>(d)));
  std::uint64_t events = 0;
  const double t =
      check_allgather(fn_mha_intra(-1), 1, 8, 65536, false, &events);
  EXPECT_EQ(t, 0x1.da333f0dbcd0bp-14) << std::hexfloat << t;
  EXPECT_EQ(events, 881u);
}

TEST(MhaIntraPin, NoOffload) {
  std::uint64_t events = 0;
  const double t =
      check_allgather(fn_mha_intra(0), 1, 8, 65536, false, &events);
  EXPECT_EQ(t, 0x1.326a47d1261b5p-13) << std::hexfloat << t;
  EXPECT_EQ(events, 519u);
}

// ---- Performance properties ----

double intra_latency(int ppn, std::size_t msg, double offload) {
  return OffloadTuner::measure(hw::ClusterSpec::thor(1, ppn), ppn, msg,
                               offload);
}

TEST(MhaIntraPerf, OffloadBeatsPureCma) {
  // Fig. 11 regime: 4 processes, 4 MB messages. The tuned design must beat
  // d = 0 (pure CMA Direct Spread) clearly.
  const std::size_t msg = 4u << 20;
  const double t_cma = intra_latency(4, msg, 0);
  const double d = analytic_offload(hw::ClusterSpec::thor(1, 4), 4, msg);
  EXPECT_GT(d, 0.4);
  const double t_mha = intra_latency(4, msg, d);
  EXPECT_LT(t_mha, 0.85 * t_cma);
}

TEST(MhaIntraPerf, FullOffloadIdlesCpus) {
  // The other arm of the V (Fig. 5): offloading everything is worse than
  // the optimum for enough processes.
  const std::size_t msg = 4u << 20;
  const int l = 8;
  const double d = OffloadTuner::search(hw::ClusterSpec::thor(1, l), l, msg);
  const double t_opt = intra_latency(l, msg, d);
  const double t_all = intra_latency(l, msg, l - 1);
  EXPECT_LT(t_opt, t_all);
}

TEST(MhaIntraPerf, BenefitShrinksWithMoreProcesses) {
  // Sec. 5.2's observed trend: with a fixed adapter count, the relative
  // gain over pure CMA decreases as more processes join.
  const std::size_t msg = 2u << 20;
  auto gain = [&](int l) {
    const double base = intra_latency(l, msg, 0);
    const double d = OffloadTuner::search(hw::ClusterSpec::thor(1, l), l, msg);
    return base / intra_latency(l, msg, d);
  };
  const double g2 = gain(2);
  const double g8 = gain(8);
  const double g16 = gain(16);
  EXPECT_GT(g2, g8);
  EXPECT_GT(g8, g16 * 0.95);  // monotone within tolerance
  EXPECT_GT(g2, 1.3);         // clear win at 2 processes
}

TEST(MhaIntraPerf, MoreAdaptersExtendTheBenefit) {
  // Sec. 5.2: "more adapters are needed for sustained performance when
  // more processes are involved" — a ThetaGPU-like 8-rail node keeps a
  // larger win at 16 PPN than the 2-rail Thor node.
  const std::size_t msg = 2u << 20;
  const int l = 16;
  auto gain = [&](int rails) {
    auto spec = hw::ClusterSpec::multi_rail(1, l, rails);
    const double base = OffloadTuner::measure(spec, l, msg, 0);
    const double d = OffloadTuner::search(spec, l, msg);
    return base / OffloadTuner::measure(spec, l, msg, d);
  };
  EXPECT_GT(gain(8), gain(2));
}

TEST(AnalyticOffload, MatchesEquationShape) {
  // Eq. 1: d grows with message size (the HCA startup matters less) and
  // never exceeds L-1.
  auto spec = hw::ClusterSpec::thor(1, 4);
  const double d_small = analytic_offload(spec, 4, 4096);
  const double d_large = analytic_offload(spec, 4, 8u << 20);
  EXPECT_GE(d_large, d_small);
  EXPECT_LE(d_large, 3.0);
  EXPECT_DOUBLE_EQ(analytic_offload(spec, 1, 65536), 0.0);
}

}  // namespace
}  // namespace hmca::core
