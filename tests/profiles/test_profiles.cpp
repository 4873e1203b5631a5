// Library profiles: registry behaviour, correctness of every profile's
// collectives, and the headline comparison shape (MHA wins the paper's
// regimes).
#include <gtest/gtest.h>

#include "osu/harness.hpp"
#include "profiles/profiles.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::profiles {
namespace {

using hmca::testing::check_allgather;
using hmca::testing::check_allreduce;

TEST(Registry, NamesAndLookup) {
  const auto n = names();
  ASSERT_EQ(n.size(), 3u);
  for (const auto& name : n) {
    EXPECT_EQ(by_name(name).name, name);
  }
  EXPECT_THROW(by_name("openmpi"), std::invalid_argument);
}

TEST(Policy, DeclarativeRulesNameRegistryEntries) {
  const auto& hp = policy("hpcx");
  EXPECT_FALSE(hp.use_selector);
  ASSERT_EQ(hp.allgather.size(), 2u);
  EXPECT_EQ(hp.allgather[0].algo, "bruck");
  EXPECT_EQ(hp.allgather[1].algo, "ring");

  const auto& mv = policy("mvapich");
  ASSERT_EQ(mv.allgather.size(), 4u);
  EXPECT_EQ(mv.allgather[0].algo, "rd_or_bruck");
  EXPECT_EQ(mv.allgather[1].algo, "multi_leader2");
  EXPECT_EQ(mv.allgather[2].algo, "multi_leader1");
  EXPECT_EQ(mv.allgather[3].algo, "ring");

  // Every named algorithm must resolve in the registry.
  auto& reg = coll::Registry::instance();
  for (const auto* p : {&hp, &mv}) {
    for (const auto& r : p->allgather) {
      EXPECT_NE(reg.allgather.find(r.algo), nullptr) << r.algo;
    }
    for (const auto& r : p->allreduce) {
      EXPECT_NE(reg.allreduce.find(r.algo), nullptr) << r.algo;
    }
  }

  EXPECT_TRUE(policy("mha").use_selector);
  EXPECT_THROW(policy("openmpi"), std::invalid_argument);
}

TEST(Policy, RuleChainFallsBackByApplicability) {
  // mvapich large-message dispatch: the multi_leader2 rule is guarded by
  // its registry applicability (world && even ppn), so odd-PPN worlds fall
  // through to multi_leader1 and subset comms to ring — rule order, not
  // hand-wired if/else.
  check_allgather(mvapich().allgather, 2, 3, 16384);  // odd ppn -> leader1
  check_allgather(mvapich().allgather, 2, 1, 16384);  // ppn 1 -> flat ring
}

class ProfileCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileCorrectness, AllgatherSmall) {
  const auto& p = by_name(GetParam());
  check_allgather(p.allgather, 2, 2, 512);
}

TEST_P(ProfileCorrectness, AllgatherLarge) {
  const auto& p = by_name(GetParam());
  check_allgather(p.allgather, 2, 4, 65536);
}

TEST_P(ProfileCorrectness, AllgatherNonPowerOfTwoNodes) {
  const auto& p = by_name(GetParam());
  check_allgather(p.allgather, 3, 2, 16384);
}

TEST_P(ProfileCorrectness, AllgatherSingleNode) {
  const auto& p = by_name(GetParam());
  check_allgather(p.allgather, 1, 4, 262144);
}

TEST_P(ProfileCorrectness, AllreduceSmall) {
  const auto& p = by_name(GetParam());
  check_allreduce(p.allreduce, 2, 2, 64, mpi::ReduceOp::kSum);
}

TEST_P(ProfileCorrectness, AllreduceLarge) {
  const auto& p = by_name(GetParam());
  check_allreduce(p.allreduce, 2, 2, 16384, mpi::ReduceOp::kSum);
}

INSTANTIATE_TEST_SUITE_P(All, ProfileCorrectness,
                         ::testing::Values("mha", "hpcx", "mvapich"));

// ---- The paper's headline comparisons, in miniature ----

TEST(Comparison, MhaWinsIntraNodeLargeMessages) {
  // Fig. 11 regime.
  const auto spec = hw::ClusterSpec::thor(1, 4);
  const std::size_t msg = 4u << 20;
  const double t_mha = osu::measure_allgather(spec, mha().allgather, msg);
  const double t_hpcx = osu::measure_allgather(spec, hpcx().allgather, msg);
  const double t_mva = osu::measure_allgather(spec, mvapich().allgather, msg);
  EXPECT_LT(t_mha, t_hpcx);
  EXPECT_LT(t_mha, t_mva);
}

TEST(Comparison, MhaWinsInterNodeMediumMessages) {
  // Figs. 12-14 medium-message regime, where the paper's peak gains live
  // (the hierarchy removes the P-1 step dependency chain of flat designs).
  const auto spec = hw::ClusterSpec::thor(8, 16);
  const std::size_t msg = 4096;
  const double t_mha = osu::measure_allgather(spec, mha().allgather, msg);
  const double t_hpcx = osu::measure_allgather(spec, hpcx().allgather, msg);
  const double t_mva = osu::measure_allgather(spec, mvapich().allgather, msg);
  EXPECT_LT(t_mha, 0.7 * t_hpcx);
  EXPECT_LT(t_mha, 0.8 * t_mva);
}

TEST(Comparison, MhaStaysCompetitiveAtLargeMessages) {
  // At very large messages every design is bound by the node's aggregate
  // copy throughput and they converge (documented model deviation from the
  // paper's absolute gains; see EXPERIMENTS.md). MHA must not *lose*.
  const auto spec = hw::ClusterSpec::thor(4, 8);
  const std::size_t msg = 65536;
  const double t_mha = osu::measure_allgather(spec, mha().allgather, msg);
  const double t_hpcx = osu::measure_allgather(spec, hpcx().allgather, msg);
  const double t_mva = osu::measure_allgather(spec, mvapich().allgather, msg);
  EXPECT_LT(t_mha, 1.25 * t_hpcx);
  EXPECT_LT(t_mha, 1.05 * t_mva);
}

TEST(Comparison, MhaImprovesLargeAllreduce) {
  // Fig. 15 regime: medium-large vectors at scale.
  const auto spec = hw::ClusterSpec::thor(8, 16);
  const std::size_t bytes = 1u << 20;
  const double t_mha = osu::measure_allreduce(spec, mha().allreduce, bytes);
  const double t_hpcx = osu::measure_allreduce(spec, hpcx().allreduce, bytes);
  EXPECT_LT(t_mha, t_hpcx);
}

TEST(Comparison, DeterministicMeasurements) {
  const auto spec = hw::ClusterSpec::thor(2, 2);
  const double a = osu::measure_allgather(spec, mha().allgather, 4096);
  const double b = osu::measure_allgather(spec, mha().allgather, 4096);
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace hmca::profiles
