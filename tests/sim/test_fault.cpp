// sim/fault.hpp: plan parsing (DSL + JSON), canonical rendering round-trip,
// topology validation, randomized-plan invariants and backoff bounds.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace hmca::sim {
namespace {

TEST(FaultPlan, ParsesKillEntry) {
  const auto plan = FaultPlan::parse("kill:node=0,hca=1,t=5e-6");
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.events[0].node, 0);
  EXPECT_EQ(plan.events[0].hca, 1);
  EXPECT_DOUBLE_EQ(plan.events[0].t, 5e-6);
  EXPECT_FALSE(plan.transient.has_value());
}

TEST(FaultPlan, ParsesDegradeWithWildcards) {
  const auto plan = FaultPlan::parse("degrade:node=*,hca=*,t=0,bw=0.5,lat=2");
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kDegrade);
  EXPECT_EQ(plan.events[0].node, -1);
  EXPECT_EQ(plan.events[0].hca, -1);
  EXPECT_DOUBLE_EQ(plan.events[0].bw_factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.events[0].lat_factor, 2.0);
}

TEST(FaultPlan, ParsesTransientSpec) {
  const auto plan = FaultPlan::parse(
      "flaky:rate=0.05,burst=2,seed=7,backoff=2e-6,backoff_max=64e-6");
  ASSERT_TRUE(plan.transient.has_value());
  EXPECT_DOUBLE_EQ(plan.transient->rate, 0.05);
  EXPECT_EQ(plan.transient->max_consecutive, 2);
  EXPECT_EQ(plan.transient->seed, 7u);
}

TEST(FaultPlan, ParsesMultiEntrySpec) {
  const auto plan = FaultPlan::parse(
      "kill:node=0,hca=1,t=5e-6;degrade:node=1,hca=0,t=0,bw=0.25;"
      "flaky:rate=0.1");
  EXPECT_EQ(plan.events.size(), 2u);
  EXPECT_TRUE(plan.transient.has_value());
}

TEST(FaultPlan, ParsesJsonForm) {
  const auto plan = FaultPlan::parse(
      R"([{"kind":"kill","node":0,"hca":1,"t":5e-6},)"
      R"({"kind":"degrade","node":1,"hca":0,"t":0,"bw":0.5,"lat":3},)"
      R"({"kind":"flaky","rate":0.1,"burst":2}])");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDegrade);
  EXPECT_DOUBLE_EQ(plan.events[1].lat_factor, 3.0);
  ASSERT_TRUE(plan.transient.has_value());
  EXPECT_EQ(plan.transient->max_consecutive, 2);
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  \n ").empty());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* specs[] = {
      "kill:node=0,hca=1,t=5e-6",
      "degrade:node=*,hca=0,t=0,bw=0.5,lat=2",
      "kill:node=2,hca=*,t=1e-5;flaky:rate=0.1,burst=3,seed=9",
  };
  for (const char* s : specs) {
    const auto plan = FaultPlan::parse(s);
    const auto again = FaultPlan::parse(plan.to_string());
    EXPECT_EQ(again.to_string(), plan.to_string()) << s;
    EXPECT_EQ(again.events.size(), plan.events.size()) << s;
    EXPECT_EQ(again.transient.has_value(), plan.transient.has_value()) << s;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode:node=0"), FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("kill:node=zero,hca=1,t=0"), FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("kill:nonsense"), FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("[{\"kind\":\"kill\""), FaultPlanError);
}

TEST(FaultPlan, ValidateChecksTopologyAndFactors) {
  EXPECT_NO_THROW(FaultPlan::parse("kill:node=1,hca=1,t=0").validate(2, 2));
  EXPECT_THROW(FaultPlan::parse("kill:node=2,hca=0,t=0").validate(2, 2),
               FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("kill:node=0,hca=2,t=0").validate(2, 2),
               FaultPlanError);
  EXPECT_THROW(
      FaultPlan::parse("degrade:node=0,hca=0,t=0,bw=0").validate(2, 2),
      FaultPlanError);
  EXPECT_THROW(
      FaultPlan::parse("degrade:node=0,hca=0,t=0,bw=1,lat=0.5").validate(2, 2),
      FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("flaky:rate=1.5").validate(2, 2),
               FaultPlanError);
}

TEST(FaultPlan, RejectsBandwidthFactorBelowFloor) {
  // 1e-300 would become a 1e300 fluid weight and a near-zero rate cap.
  try {
    FaultPlan::parse("degrade:node=0,hca=0,t=0,bw=1e-300").validate(2, 2);
    FAIL() << "bw=1e-300 accepted";
  } catch (const FaultPlanError& e) {
    EXPECT_NE(std::string(e.what()).find("bw factor must be in [1e-3, 1]"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      FaultPlan::parse("degrade:node=0,hca=0,t=0,bw=0.0009").validate(2, 2),
      FaultPlanError);
  EXPECT_NO_THROW(
      FaultPlan::parse("degrade:node=0,hca=0,t=0,bw=1e-3").validate(2, 2));
}

TEST(FaultPlan, RejectsNonFiniteAndOutOfRangeNumbers) {
  // Each case names the field and echoes the text the user gave.
  const std::pair<const char*, const char*> cases[] = {
      {"kill:node=0,hca=0,t=inf", "t='inf'"},
      {"kill:node=0,hca=0,t=nan", "t='nan'"},
      {"degrade:node=0,hca=0,t=0,lat=inf", "lat='inf'"},
      {"degrade:node=0,hca=0,t=0,bw=-inf", "bw='-inf'"},
      {"kill:node=4294967296,hca=0,t=0", "node='4294967296'"},
      {"kill:node=0,hca=-3e9,t=0", "hca='-3e9'"},
      {"flaky:rate=0.1,burst=1e30", "burst='1e30'"},
      {"flaky:rate=0.1,burst=2.5", "burst='2.5'"},
      {"flaky:rate=inf", "rate='inf'"},
      {"flaky:rate=0.1,seed=-1", "seed='-1'"},
      {"flaky:rate=0.1,seed=1.8446744073709552e19",
       "seed='1.8446744073709552e19'"},
      {"[{\"kind\":\"kill\",\"node\":1e10}]", "node='1e10'"},
  };
  for (const auto& [plan, named] : cases) {
    try {
      FaultPlan::parse(plan);
      ADD_FAILURE() << "accepted: " << plan;
    } catch (const FaultPlanError& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << plan << " -> " << e.what();
    }
  }
  // The largest in-range values still parse.
  EXPECT_EQ(FaultPlan::parse("kill:node=2147483647,hca=0,t=0")
                .events.front()
                .node,
            2147483647);
  EXPECT_EQ(FaultPlan::parse("flaky:rate=0.1,seed=18446744073709549568")
                .transient->seed,
            18446744073709549568ull);
}

TEST(TransientSpec, BackoffIsBoundedExponential) {
  TransientSpec t;
  t.backoff_base = 2e-6;
  t.backoff_max = 64e-6;
  EXPECT_DOUBLE_EQ(t.backoff(1), 2e-6);
  EXPECT_DOUBLE_EQ(t.backoff(2), 4e-6);
  EXPECT_DOUBLE_EQ(t.backoff(3), 8e-6);
  for (int a = 1; a < 40; ++a) {
    EXPECT_LE(t.backoff(a), 64e-6) << "attempt " << a;
    EXPECT_GE(t.backoff(a), 2e-6) << "attempt " << a;
  }
}

TEST(FaultPlan, RandomKillPlansProtectOneRailPerNode) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 4));
    const int hcas = static_cast<int>(rng.uniform_int(1, 4));
    const auto plan =
        FaultPlan::random(rng, nodes, hcas, FaultPlan::Category::kKill);
    EXPECT_NO_THROW(plan.validate(nodes, hcas));
    for (int n = 0; n < nodes; ++n) {
      std::set<int> dead;
      for (const auto& e : plan.events) {
        if (e.kind != FaultKind::kKill) continue;
        if (e.node != n && e.node != -1) continue;
        if (e.hca == -1) {
          for (int h = 0; h < hcas; ++h) dead.insert(h);
        } else {
          dead.insert(e.hca);
        }
      }
      EXPECT_LT(static_cast<int>(dead.size()), hcas)
          << "node " << n << " lost every rail: " << plan.to_string();
    }
  }
}

TEST(FaultPlan, RandomPlansMatchTheirCategory) {
  Rng rng(99);
  using Cat = FaultPlan::Category;
  EXPECT_TRUE(FaultPlan::random(rng, 2, 2, Cat::kNone).empty());
  const auto kill = FaultPlan::random(rng, 2, 2, Cat::kKill);
  for (const auto& e : kill.events) EXPECT_EQ(e.kind, FaultKind::kKill);
  const auto degrade = FaultPlan::random(rng, 2, 2, Cat::kDegrade);
  EXPECT_FALSE(degrade.events.empty());
  for (const auto& e : degrade.events) {
    EXPECT_EQ(e.kind, FaultKind::kDegrade);
    EXPECT_GT(e.bw_factor, 0.0);
    EXPECT_LE(e.bw_factor, 1.0);
    EXPECT_GE(e.lat_factor, 1.0);
  }
  const auto transient = FaultPlan::random(rng, 2, 2, Cat::kTransient);
  ASSERT_TRUE(transient.transient.has_value());
  EXPECT_GT(transient.transient->rate, 0.0);
  EXPECT_LT(transient.transient->rate, 1.0);
  EXPECT_GE(transient.transient->max_consecutive, 1);
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic) {
  using Cat = FaultPlan::Category;
  Rng a(7), b(7);
  for (const Cat c : {Cat::kKill, Cat::kDegrade, Cat::kTransient, Cat::kMixed}) {
    EXPECT_EQ(FaultPlan::random(a, 3, 2, c).to_string(),
              FaultPlan::random(b, 3, 2, c).to_string());
  }
}

TEST(FaultEvent, DescribeNamesTheFault) {
  const auto plan = FaultPlan::parse("kill:node=0,hca=1,t=5e-6");
  const std::string d = plan.events[0].describe();
  EXPECT_NE(d.find("kill"), std::string::npos);
  EXPECT_NE(d.find("1"), std::string::npos);
}

TEST(FaultPlan, CategoryNames) {
  using Cat = FaultPlan::Category;
  EXPECT_STREQ(FaultPlan::category_name(Cat::kNone), "none");
  EXPECT_STREQ(FaultPlan::category_name(Cat::kKill), "kill");
  EXPECT_STREQ(FaultPlan::category_name(Cat::kDegrade), "degrade");
  EXPECT_STREQ(FaultPlan::category_name(Cat::kTransient), "transient");
  EXPECT_STREQ(FaultPlan::category_name(Cat::kMixed), "mixed");
}

}  // namespace
}  // namespace hmca::sim
