// Property tests for the incremental fluid solver.
//
// The rewritten FluidNetwork recomputes rates incrementally (affected
// connected component only). These tests pin the load-bearing claim: at
// every settle point, the incremental rates match a from-scratch max-min
// water-filling solve — the retained waterfill_reference oracle — within
// 0 ULP, i.e. bit-for-bit, under randomized flow add/remove churn on
// randomized topologies. One generator draws fractional weights (the
// solver's per-flow fallback), the other integer weights on shared use
// templates (its class-level path). A conservation check (sum of flow
// rates never exceeds any resource's capacity) rides along at every settle
// point.
// Seed-replayable: HMCA_SIMCORE_SEED=<seed> ctest -L simcore
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "osu/env.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "sim/rng.hpp"

namespace hmca::sim {
namespace {

constexpr const char* kSeedEnv = osu::Env::kSimcoreSeed;

std::uint64_t suite_seed() {
  return osu::Env::simcore_seed().value_or(0xF1D01ull);
}

struct Topology {
  std::vector<double> capacities;
  struct Plan {
    std::vector<ResourceUse> uses;
    double bytes;
    double cap;
    double start;
    // Re-run the same spec this many more times, each after the previous
    // run drains plus kRepeatGap, so its flow class empties and revives.
    int repeats = 0;
  };
  std::vector<Plan> plans;
};

/// Random topology + flow schedule. `components` > 1 partitions the
/// resources into disjoint groups and confines every flow to one group, so
/// add/remove churn in one component leaves the others' affected sets
/// untouched — the case where the incremental solver actually skips work.
Topology make_topology(std::uint64_t seed, int components = 1) {
  Rng rng(seed);
  Topology topo;
  const int per_comp = 2 + static_cast<int>(rng.next_below(4));
  const int resources = per_comp * components;
  for (int r = 0; r < resources; ++r) {
    topo.capacities.push_back(
        50.0 + static_cast<double>(rng.next_below(4500)) / 10.0);
  }
  const int flows = 4 + static_cast<int>(rng.next_below(24));
  for (int f = 0; f < flows; ++f) {
    Topology::Plan p;
    const int comp = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(components)));
    const int lo = comp * per_comp;
    if (rng.next_below(10) != 0) {  // 1-in-10 flows are resource-free
      const int uses = 1 + static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(per_comp)));
      for (int u = 0; u < uses; ++u) {
        // Duplicate resource ids are legal (weights accumulate).
        p.uses.push_back(ResourceUse{
            static_cast<ResourceId>(lo + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(per_comp)))),
            0.5 + static_cast<double>(rng.next_below(25)) / 10.0});
      }
    }
    // Resource-free flows need a cap; give others one 30% of the time.
    p.cap = (p.uses.empty() || rng.next_below(10) < 3)
                ? 5.0 + static_cast<double>(rng.next_below(450)) / 10.0
                : kNoRateCap;
    p.bytes = 10.0 + static_cast<double>(rng.next_below(49900)) / 10.0;
    p.start = static_cast<double>(rng.next_below(3000)) / 1000.0;
    topo.plans.push_back(std::move(p));
  }
  return topo;
}

/// Random flow-class workload: every flow copies one of 1-5 shared use
/// templates with integer weights {1, 2, 3} (some capped), so live flows
/// fall into a few classes with multiplicities above one and the solver
/// takes its class-level path. Capped templates force cap rounds and
/// multi-round solves. Two extra plans ride along: a repeating flow with a
/// class of its own (a cap no template uses), whose multiplicity drops to 0
/// between runs and is then reused, and one fractional-weight flow that
/// puts its component on the per-flow fallback while it is live.
Topology make_class_topology(std::uint64_t seed) {
  Rng rng(seed);
  Topology topo;
  const int resources = 2 + static_cast<int>(rng.next_below(4));
  for (int r = 0; r < resources; ++r) {
    topo.capacities.push_back(
        50.0 + static_cast<double>(rng.next_below(4500)) / 10.0);
  }
  auto random_uses = [&] {
    std::vector<ResourceUse> uses;
    const int n = 1 + static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(resources)));
    for (int u = 0; u < n; ++u) {
      uses.push_back(ResourceUse{
          static_cast<ResourceId>(rng.next_below(
              static_cast<std::uint64_t>(resources))),
          1.0 + static_cast<double>(rng.next_below(3))});
    }
    return uses;
  };
  struct Template {
    std::vector<ResourceUse> uses;
    double cap;
  };
  std::vector<Template> templates;
  const int ntemplates = 1 + static_cast<int>(rng.next_below(5));
  for (int t = 0; t < ntemplates; ++t) {
    Template tp;
    tp.uses = random_uses();
    tp.cap = rng.next_below(10) < 4
                 ? 5.0 + static_cast<double>(rng.next_below(450)) / 10.0
                 : kNoRateCap;
    templates.push_back(std::move(tp));
  }
  auto random_plan = [&] {
    Topology::Plan p;
    p.bytes = 10.0 + static_cast<double>(rng.next_below(49900)) / 10.0;
    p.cap = kNoRateCap;
    p.start = static_cast<double>(rng.next_below(3000)) / 1000.0;
    return p;
  };
  const int flows = 8 + static_cast<int>(rng.next_below(32));
  for (int f = 0; f < flows; ++f) {
    Topology::Plan p = random_plan();
    const Template& tp = templates[rng.next_below(templates.size())];
    p.uses = tp.uses;
    p.cap = tp.cap;
    topo.plans.push_back(std::move(p));
  }
  Topology::Plan revived = random_plan();
  revived.uses = random_uses();
  revived.cap = 1e6;  // never binds; only makes the class key unique
  revived.bytes /= 10.0;
  revived.repeats = 3;
  topo.plans.push_back(std::move(revived));
  Topology::Plan fractional = random_plan();
  fractional.uses = templates[rng.next_below(templates.size())].uses;
  // Not dyadic, so pending sums round; live from the start, so it shares
  // most settle points with the class-path flows.
  fractional.uses[0].weight +=
      0.1 * static_cast<double>(1 + rng.next_below(9));
  fractional.start = 0.0;
  topo.plans.push_back(std::move(fractional));
  return topo;
}

constexpr double kRepeatGap = 0.0503;

Task<void> run_flow(Engine& eng, FluidNetwork& net, const Topology::Plan& plan,
                    int* done) {
  co_await eng.sleep(plan.start);
  for (int run = 0; run <= plan.repeats; ++run) {
    if (run > 0) co_await eng.sleep(kRepeatGap);
    FlowSpec spec;
    spec.uses = plan.uses;
    spec.bytes = plan.bytes;
    spec.rate_cap = plan.cap;
    co_await net.transfer(std::move(spec));
  }
  ++*done;
}

/// Compare the network's settled rates against a from-scratch reference
/// solve of the currently active flows (start order), bit-for-bit.
void check_settle_point(const FluidNetwork& net,
                        const std::vector<double>& capacities,
                        std::uint64_t seed, int* checks) {
  const auto snap = net.snapshot();
  std::vector<ReferenceFlow> ref;
  ref.reserve(snap.size());
  for (const auto& s : snap) {
    ref.push_back(ReferenceFlow{s.spec->uses, s.spec->rate_cap});
  }
  const std::vector<double> want = waterfill_reference(capacities, ref);
  ASSERT_EQ(want.size(), snap.size());
  for (std::size_t f = 0; f < snap.size(); ++f) {
    // EXPECT_EQ on doubles is exact equality: the 0-ULP contract.
    EXPECT_EQ(snap[f].rate, want[f])
        << "flow " << f << " of " << snap.size()
        << " diverged from the reference solve; replay with " << kSeedEnv
        << "=" << seed;
  }
  // Conservation: aggregate weighted rate through each resource must not
  // exceed its capacity (tolerance matches the solver's bottleneck slack).
  std::vector<double> load(capacities.size(), 0.0);
  for (const auto& s : snap) {
    for (const auto& u : s.spec->uses) load[u.resource] += s.rate * u.weight;
  }
  for (std::size_t r = 0; r < capacities.size(); ++r) {
    EXPECT_LE(load[r], capacities[r] * (1.0 + 1e-9))
        << "resource " << r << " oversubscribed; replay with " << kSeedEnv
        << "=" << seed;
  }
  ++*checks;
}

Task<void> monitor(Engine& eng, FluidNetwork& net, const Topology& topo,
                   std::uint64_t seed, const int* done, int* checks) {
  const int total = static_cast<int>(topo.plans.size());
  while (*done < total) {
    // Ticks land between flow-event timestamps (starts are on a 1 ms grid,
    // completions at irregular solver-derived instants), so every check
    // sees settled rates.
    co_await eng.sleep(0.0170001);
    check_settle_point(net, topo.capacities, seed, checks);
  }
}

void run_churn(std::uint64_t seed, const Topology& topo) {
  Engine eng;
  FluidNetwork net(eng);
  for (std::size_t r = 0; r < topo.capacities.size(); ++r) {
    net.add_resource("r" + std::to_string(r), topo.capacities[r]);
  }
  int done = 0;
  int checks = 0;
  for (const auto& plan : topo.plans) {
    eng.spawn(run_flow(eng, net, plan, &done));
  }
  eng.spawn(monitor(eng, net, topo, seed, &done, &checks));
  eng.run();
  EXPECT_EQ(done, static_cast<int>(topo.plans.size()));
  EXPECT_GT(checks, 10) << "monitor sampled too few settle points";
}

class FluidIncremental : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidIncremental, MatchesReferenceSolveAtEverySettlePoint) {
  const std::uint64_t seed = suite_seed() + GetParam();
  run_churn(seed, make_topology(seed, /*components=*/1));
}

TEST_P(FluidIncremental, MatchesReferenceAcrossDisjointComponents) {
  // Multiple disconnected sharing components: churn in one must leave the
  // rest untouched, and the incremental partial recompute must still agree
  // with the global reference solve bit-for-bit.
  const std::uint64_t seed = suite_seed() + GetParam();
  run_churn(seed, make_topology(seed, /*components=*/3));
}

TEST_P(FluidIncremental, ClassPathMatchesReferenceWithSharedTemplates) {
  // Integer weights and shared use templates: the solver decides per flow
  // class, and must still match the per-flow reference bit-for-bit.
  const std::uint64_t seed = suite_seed() + GetParam();
  run_churn(seed, make_class_topology(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidIncremental,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u));

TEST(FluidIncremental, RemovalRedistributesWithinComponentOnly) {
  // Two flows on link A, one on link B. When the first A-flow drains, the
  // survivor's rate doubles; B's flow is bit-identical throughout.
  Engine eng;
  FluidNetwork net(eng);
  const auto a = net.add_resource("A", 100.0);
  const auto b = net.add_resource("B", 70.0);
  std::vector<double> b_rates;
  int done = 0;
  auto flow = [&](std::vector<ResourceUse> uses, double bytes) -> Task<void> {
    FlowSpec spec;
    spec.uses = std::move(uses);
    spec.bytes = bytes;
    co_await net.transfer(std::move(spec));
    ++done;
  };
  auto watch_b = [&]() -> Task<void> {
    while (done < 3) {
      co_await eng.sleep(0.1000001);
      for (const auto& s : net.snapshot()) {
        if (!s.spec->uses.empty() && s.spec->uses[0].resource == b) {
          b_rates.push_back(s.rate);
        }
      }
    }
  };
  eng.spawn(flow({{a, 1.0}}, 100.0));   // done at t=2 (50 B/s while shared)
  eng.spawn(flow({{a, 1.0}}, 1000.0));  // 50 B/s then 100 B/s
  eng.spawn(flow({{b, 1.0}}, 7000.0));  // 70 B/s throughout, unaffected
  eng.spawn(watch_b());
  eng.run();
  ASSERT_FALSE(b_rates.empty());
  for (const double r : b_rates) {
    EXPECT_EQ(r, 70.0) << "B-component rate disturbed by A-component churn";
  }
}

}  // namespace
}  // namespace hmca::sim
