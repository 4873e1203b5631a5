// Cost models (Eqs. 1-7): parameter fitting, equation shapes, and
// validation against the simulator (the Sec. 4.3 experiments in miniature).
#include <gtest/gtest.h>

#include <cmath>

#include "core/hierarchy.hpp"
#include "core/tuner.hpp"
#include "model/cost.hpp"
#include "model/params.hpp"
#include "osu/harness.hpp"

namespace hmca::model {
namespace {

TEST(Params, FromSpecMirrorsHardware) {
  const auto spec = hw::ClusterSpec::thor(2, 2);
  const auto p = ModelParams::from_spec(spec);
  EXPECT_DOUBLE_EQ(p.bw_h, spec.hca_bw);
  EXPECT_EQ(p.hcas, 2);
  EXPECT_DOUBLE_EQ(p.mem_bw, spec.mem_bw);
  EXPECT_GT(p.alpha_c, 0);
  EXPECT_GT(p.alpha_h, 0);
}

TEST(Params, MeasuredFitIsCloseToSpec) {
  const auto spec = hw::ClusterSpec::thor(2, 2);
  const auto fit = ModelParams::measure(spec);
  const auto direct = ModelParams::from_spec(spec);
  // Bandwidths should fit within a few percent; alphas within ~1 us.
  EXPECT_NEAR(fit.bw_c, direct.bw_c, 0.05 * direct.bw_c);
  EXPECT_NEAR(fit.bw_h, direct.bw_h, 0.05 * direct.bw_h);
  EXPECT_NEAR(fit.alpha_c, direct.alpha_c, 1e-6);
}

TEST(Params, PrimitiveCostShapes) {
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(2, 32));
  // Tc grows with congestion.
  EXPECT_GT(p.Tc(1e6, 32), p.Tc(1e6, 1));
  // Th uses all rails, but loopback crosses PCIe twice per adapter.
  EXPECT_LT(p.Th(1e6, false), p.alpha_h + 1e6 / p.bw_h);
  EXPECT_GT(p.Th(1e6, true), p.Th(1e6, false));
  // cg is 1 for a single copier and grows with the copier count.
  EXPECT_DOUBLE_EQ(p.cg(1e6, 1), 1.0);
  EXPECT_GT(p.cg(1e6, 31), p.cg(1e6, 8));
  EXPECT_GT(p.cg(1e6, 31), 4.0);
}

TEST(CostEq1, OffloadSplitsBalanceCpuAndHca) {
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(1, 8));
  const double d = optimal_offload(p, 8, 1 << 20);
  ASSERT_GT(d, 0.5);
  ASSERT_LE(d, 7.0);
  // At the (real-valued) Eq. 1 optimum the two arms of Eq. 2 balance up to
  // the alpha terms.
  const double cpu = (8 - 1 - d) * p.Tc(1 << 20, 8);
  const double hca = 8.0 * d * p.Th(1 << 20);
  EXPECT_LT(std::abs(cpu - hca) / std::max(cpu, hca), 0.1);
}

TEST(CostEq2, IntraTimeIsMaxOfArms) {
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(1, 4));
  const double m = 1 << 20;
  // d = 0: pure CPU arm.
  EXPECT_NEAR(mha_intra_time(p, 4, m, 0), p.Tl(m) + 3 * p.Tc(m, 4), 1e-12);
  // d = 3: pure HCA arm.
  EXPECT_NEAR(mha_intra_time(p, 4, m, 3), p.Tl(m) + 4.0 * 3 * p.Th(m), 1e-12);
  // Optimal d is no worse than either extreme.
  const double opt = mha_intra_time(p, 4, m);
  EXPECT_LE(opt, mha_intra_time(p, 4, m, 0) + 1e-12);
  EXPECT_LE(opt, mha_intra_time(p, 4, m, 3) + 1e-12);
}

TEST(CostEq34, RdSavesAlphasRingSavesNothingOnWire) {
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(16, 32));
  const double ml = 32.0 * 1024;
  // Same wire-byte term; RD has fewer startups.
  EXPECT_LT(phase2_rd_time(p, 16, ml), phase2_ring_time(p, 16, ml));
  const double data_term = 15 * ml / (p.bw_h * p.hcas);
  EXPECT_NEAR(phase2_ring_time(p, 16, ml) - 15 * p.alpha_h, data_term, 1e-9);
  EXPECT_NEAR(phase2_rd_time(p, 16, ml) - 4 * p.alpha_h, data_term, 1e-9);
}

TEST(CostEq67, InterModelsArePositiveAndGrowWithSize) {
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(16, 32));
  for (double m : {128.0, 4096.0, 1e6}) {
    EXPECT_GT(mha_inter_time_rd(p, 16, 32, m), 0.0);
    EXPECT_GT(mha_inter_time_ring(p, 16, 32, m), 0.0);
  }
  EXPECT_GT(mha_inter_time_ring(p, 16, 32, 1e6),
            mha_inter_time_ring(p, 16, 32, 4096.0));
  EXPECT_GT(mha_inter_time_rd(p, 16, 32, 1e6),
            mha_inter_time_rd(p, 16, 32, 4096.0));
}

TEST(Cg, SizeDependence) {
  // Startup-dominated small copies barely contend; large ones slow down by
  // the aggregate copy-rate ratio.
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(1, 32));
  EXPECT_LT(p.cg(64.0, 31), 1.5);
  EXPECT_GT(p.cg(1e6, 31), 5.0);
  EXPECT_GT(p.cg(1e6, 31), p.cg(16384.0, 31));
}

TEST(CostEdgeCases, DegenerateTopologies) {
  const auto p = ModelParams::from_spec(hw::ClusterSpec::thor(1, 1));
  EXPECT_DOUBLE_EQ(phase2_rd_time(p, 1, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(phase2_ring_time(p, 1, 1e6), 0.0);
  EXPECT_EQ(optimal_offload(p, 1, 1e6), 0);
  EXPECT_GT(mha_inter_time_rd(p, 1, 1, 1e6), 0.0);  // just phase 1
}

// ---- Sec. 4.3-style validation: model vs simulator ----

TEST(Validation, MhaIntraModelTracksSimulator) {
  // Fig. 9 in miniature: 4 processes, a few sizes; the prediction should
  // track the measured trend within ~40%.
  const auto spec = hw::ClusterSpec::thor(1, 4);
  const auto p = ModelParams::from_spec(spec);
  for (std::size_t msg : {1u << 18, 1u << 20, 1u << 22}) {
    const double actual = core::OffloadTuner::measure(spec, 4, msg, -1);
    const double predicted = mha_intra_time(p, 4, static_cast<double>(msg));
    EXPECT_LT(std::abs(predicted - actual) / actual, 0.4)
        << "msg=" << msg << " actual=" << actual << " pred=" << predicted;
  }
}

TEST(Validation, MhaInterModelTracksSimulator) {
  // Fig. 10 in miniature: 4 nodes x 4 PPN.
  const auto spec = hw::ClusterSpec::thor(4, 4);
  const auto p = ModelParams::from_spec(spec);
  for (std::size_t msg : {16384u, 262144u}) {
    const double actual = osu::measure_allgather(
        spec,
        [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
           bool ip) {
          return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                           core::HierarchySpec::mha());
        },
        msg);
    const double predicted =
        std::min(mha_inter_time_rd(p, 4, 4, static_cast<double>(msg)),
                 mha_inter_time_ring(p, 4, 4, static_cast<double>(msg)));
    EXPECT_LT(std::abs(predicted - actual) / actual, 0.6)
        << "msg=" << msg << " actual=" << actual << " pred=" << predicted;
  }
}

}  // namespace
}  // namespace hmca::model
