// The selection engine: threshold decisions must match the paper's defaults
// (the core/mha.hpp cutoffs, the Fig. 8 RD/Ring crossover), env overrides
// must pin registry entries and win over the cost model, and every decision
// must leave a kPhase trace span naming the algorithm and the reason.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/selector.hpp"
#include "hw/spec.hpp"
#include "mpi/comm.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"
#include "testing/coll_testing.hpp"
#include "trace/trace.hpp"

namespace hmca::core {
namespace {

using hmca::testing::check_allgather;

/// RAII setenv/unsetenv so a failing assertion cannot leak the override
/// into later tests in the same process.
class EnvGuard {
 public:
  EnvGuard(const char* var, const char* value) : var_(var) {
    ::setenv(var, value, /*overwrite=*/1);
  }
  ~EnvGuard() { ::unsetenv(var_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* var_;
};

/// Build a world and ask the default selector what it would run.
AllgatherSelection select_ag(int nodes, int ppn, std::size_t msg,
                             trace::Tracer* tracer = nullptr,
                             const Selector* sel = nullptr) {
  const auto spec = hw::ClusterSpec::thor(nodes, ppn);
  sim::Engine eng;
  obs::CollectSink sink(tracer);
  mpi::World world(eng, spec, sink);
  if (sel == nullptr) sel = &default_selector();
  return sel->select_allgather(world.comm_world(), 0, msg);
}

AllreduceSelection select_ar(int nodes, int ppn, std::size_t count,
                             const Selector* sel = nullptr) {
  const auto spec = hw::ClusterSpec::thor(nodes, ppn);
  sim::Engine eng;
  mpi::World world(eng, spec);
  if (sel == nullptr) sel = &default_selector();
  return sel->select_allreduce(world.comm_world(), 0, count,
                               mpi::Dtype::kFloat);
}

// ---- Table-driven threshold sweep: msg size x node count x ppn ----
//
// Expectations encode the paper's defaults: the 16 KB intra cutoff
// (kIntraSmallThreshold), and the Fig. 8 RD/Ring crossover at a phase-2
// chunk (msg * ppn) of 16 KB with RD requiring a power-of-two node count.

struct Case {
  int nodes;
  int ppn;
  std::size_t msg;
  const char* algo;
  const char* reason;
};

// gtest_discover_tests names each case by its printed value. The default
// printer dumps the struct's raw bytes, pointers included, which changed
// the ctest names with every build; print the shape instead.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "n" << c.nodes << "_ppn" << c.ppn << "_m" << c.msg;
}

class ThresholdSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ThresholdSweep, PicksThePaperDefault) {
  const Case c = GetParam();
  const auto sel = select_ag(c.nodes, c.ppn, c.msg);
  EXPECT_EQ(sel.name(), c.algo) << "nodes=" << c.nodes << " ppn=" << c.ppn
                                << " msg=" << c.msg;
  EXPECT_EQ(sel.reason, c.reason);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDefaults, ThresholdSweep,
    ::testing::Values(
        // Single node: conventional below the 16 KB cutoff, MHA-intra at
        // and above it.
        Case{1, 4, 1024, "rd_or_bruck", "allgather:threshold:intra-small"},
        Case{1, 4, 16383, "rd_or_bruck", "allgather:threshold:intra-small"},
        Case{1, 4, 16384, "mha_intra", "allgather:threshold:intra-large"},
        Case{1, 16, 1u << 20, "mha_intra", "allgather:threshold:intra-large"},
        // Multi-node: Fig. 8 — RD while chunk = msg*ppn <= 16 KB...
        Case{2, 16, 512, "mha_inter_rd", "allgather:threshold:fig8-rd"},
        Case{2, 16, 1024, "mha_inter_rd", "allgather:threshold:fig8-rd"},  // 16 KB edge
        // ... Ring above the crossover ...
        Case{2, 16, 2048, "mha_inter_ring", "allgather:threshold:fig8-ring"},
        Case{4, 32, 4096, "mha_inter_ring", "allgather:threshold:fig8-ring"},
        // ... and Ring whenever the node count is not a power of two.
        Case{3, 2, 64, "mha_inter_ring", "allgather:threshold:fig8-ring"},
        Case{3, 2, 262144, "mha_inter_ring", "allgather:threshold:fig8-ring"},
        // 1 PPN still follows the chunk rule (chunk = msg).
        Case{8, 1, 4096, "mha_inter_rd", "allgather:threshold:fig8-rd"},
        Case{8, 1, 65536, "mha_inter_ring", "allgather:threshold:fig8-ring"}));

TEST(SelectorAllreduce, ThresholdsMatchPaperDefaults) {
  // 4-byte floats: 8192 elements = 32 KB, the RD cutoff (inclusive).
  auto small = select_ar(2, 4, 8192);
  EXPECT_EQ(small.name(), "rd");
  EXPECT_EQ(small.reason, "allreduce:threshold:small-or-indivisible");
  // Large but indivisible by 8 ranks -> RD.
  auto odd = select_ar(2, 4, 100001);
  EXPECT_EQ(odd.name(), "rd");
  // Large and divisible -> Ring with the MHA allgather phase.
  auto large = select_ar(2, 4, 131072);
  EXPECT_EQ(large.name(), "ring_mha");
  EXPECT_EQ(large.reason, "allreduce:threshold:large");
  // One divisible step past the cutoff: 8200 floats = 32800 B.
  auto edge = select_ar(2, 4, 8200);
  EXPECT_EQ(edge.name(), "ring_mha");
  EXPECT_EQ(edge.reason, "allreduce:threshold:large");
}

TEST(SelectorAlltoall, ThresholdsMatchDefaults) {
  const auto pick = [](int nodes, int ppn, std::size_t msg) {
    sim::Engine eng;
    mpi::World world(eng, hw::ClusterSpec::thor(nodes, ppn));
    return default_selector().select_alltoall(world.comm_world(), 0, msg);
  };
  // The 16 KiB hierarchical cutoff is inclusive.
  const auto small = pick(2, 4, 16384);
  EXPECT_EQ(small.name(), "hier_leader");
  EXPECT_EQ(small.reason, "alltoall:threshold:hier-small");
  const auto large = pick(2, 4, 16385);
  EXPECT_EQ(large.name(), "direct");
  EXPECT_EQ(large.reason, "alltoall:threshold:direct");
  // No leader exchange without several nodes of several ranks.
  const auto one_per_node = pick(4, 1, 64);
  EXPECT_EQ(one_per_node.name(), "direct");
  EXPECT_EQ(one_per_node.reason, "alltoall:threshold:direct");

  sim::Engine eng;
  mpi::World world(eng, hw::ClusterSpec::thor(2, 4));
  const auto node =
      default_selector().select_alltoall(world.node_comm(0), 0, 64);
  EXPECT_EQ(node.name(), "direct");
  EXPECT_EQ(node.reason, "alltoall:threshold:direct");
}

TEST(SelectorReduceScatter, ThresholdsMatchDefaults) {
  const auto pick = [](int nodes, int ppn, std::size_t count) {
    sim::Engine eng;
    mpi::World world(eng, hw::ClusterSpec::thor(nodes, ppn));
    return default_selector().select_reduce_scatter(
        world.comm_world(), 0, count, mpi::Dtype::kFloat);
  };
  // 8192 floats = 32 KiB, the inclusive halving cutoff, on 8 ranks.
  const auto small = pick(2, 4, 8192);
  EXPECT_EQ(small.name(), "rh");
  EXPECT_EQ(small.reason, "reduce_scatter:threshold:rh-small");
  // Past the cutoff, an indivisible count, a non-power-of-two world.
  for (const auto& [nodes, ppn, count] :
       {std::tuple{2, 4, std::size_t{8200}}, std::tuple{2, 4, std::size_t{12}},
        std::tuple{3, 2, std::size_t{12}}}) {
    const auto sel = pick(nodes, ppn, count);
    EXPECT_EQ(sel.name(), "ring")
        << nodes << "x" << ppn << " count=" << count;
    EXPECT_EQ(sel.reason, "reduce_scatter:threshold:ring");
  }
}

// ---- Environment overrides ----

TEST(SelectorEnv, PinsAllgatherByName) {
  EnvGuard guard(kAllgatherAlgoEnv, "node_aware_bruck");
  const auto sel = select_ag(2, 4, 1024);
  EXPECT_EQ(sel.name(), "node_aware_bruck");
  EXPECT_EQ(sel.reason, std::string("allgather:env:") + kAllgatherAlgoEnv);
}

TEST(SelectorEnv, PinnedAllgatherRunsEndToEnd) {
  EnvGuard guard(kAllgatherAlgoEnv, "node_aware_bruck");
  // mha_allgather must now route to the pinned algorithm and still gather
  // correctly on a multi-node shape (the acceptance scenario).
  check_allgather(
      [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
         bool ip) { return mha_allgather(c, r, s, rv, m, ip); },
      3, 4, 2048);
}

TEST(SelectorEnv, UnknownNameThrows) {
  EnvGuard guard(kAllgatherAlgoEnv, "definitely_not_registered");
  EXPECT_THROW(select_ag(2, 4, 1024), std::invalid_argument);
}

TEST(SelectorEnv, InapplicablePinThrows) {
  // mha_inter_rd needs a power-of-two node count; 3 nodes must fail loudly
  // rather than silently fall back.
  EnvGuard guard(kAllgatherAlgoEnv, "mha_inter_rd");
  EXPECT_THROW(select_ag(3, 2, 1024), std::invalid_argument);
}

// The named error of an inapplicable pin, family by family, byte for
// byte: the shared override step must keep each family's wording.
template <class Select>
std::string pin_error(const char* var, const char* name, Select select) {
  EnvGuard guard(var, name);
  const auto spec = hw::ClusterSpec::thor(3, 2);
  sim::Engine eng;
  mpi::World world(eng, spec);
  try {
    select(default_selector(), world.comm_world());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(SelectorEnv, InapplicablePinNamesTheCall) {
  EXPECT_EQ(pin_error(kAllgatherAlgoEnv, "mha_inter_rd",
                      [](const Selector& s, mpi::Comm& c) {
                        s.select_allgather(c, 0, 1024);
                      }),
            "selector: HMCA_ALLGATHER_ALGO=mha_inter_rd is not applicable "
            "to this communicator (size=6, nodes=3, ppn=2)");
  EXPECT_EQ(pin_error(kAllreduceAlgoEnv, "ring",
                      [](const Selector& s, mpi::Comm& c) {
                        s.select_allreduce(c, 0, 7, mpi::Dtype::kFloat);
                      }),
            "selector: HMCA_ALLREDUCE_ALGO=ring is not applicable "
            "(size=6, count=7)");
  EXPECT_EQ(pin_error(kAlltoallAlgoEnv, "hier_leader",
                      [](const Selector& s, mpi::Comm& c) {
                        s.select_alltoall(c.world().node_comm(0), 0, 64);
                      }),
            "selector: HMCA_ALLTOALL_ALGO=hier_leader is not applicable "
            "to this communicator (size=2, nodes=1, ppn=2)");
  EXPECT_EQ(pin_error(kReduceScatterAlgoEnv, "rh",
                      [](const Selector& s, mpi::Comm& c) {
                        s.select_reduce_scatter(c, 0, 12, mpi::Dtype::kFloat);
                      }),
            "selector: HMCA_REDUCE_SCATTER_ALGO=rh is not applicable "
            "(size=6, count=12)");
}

TEST(SelectorEnv, PinsAllreduceByName) {
  EnvGuard guard(kAllreduceAlgoEnv, "ring_mha");
  const auto sel = select_ar(2, 4, 64);  // tiny: thresholds would say rd
  EXPECT_EQ(sel.name(), "ring_mha");
  EXPECT_EQ(sel.reason, std::string("allreduce:env:") + kAllreduceAlgoEnv);
}

// ---- Decision tracing ----

TEST(SelectorTrace, RecordsPhaseSpanWithNameAndReason) {
  trace::Tracer tracer;
  const auto sel = select_ag(2, 16, 2048, &tracer);
  ASSERT_EQ(sel.name(), "mha_inter_ring");
  bool found = false;
  for (const auto& s : tracer.spans()) {
    if (s.kind != trace::Kind::kPhase) continue;
    if (s.label.find("select:allgather=mha_inter_ring") == std::string::npos)
      continue;
    EXPECT_NE(s.label.find("threshold:fig8-ring"), std::string::npos)
        << s.label;
    EXPECT_EQ(s.bytes, 2048u);
    found = true;
  }
  EXPECT_TRUE(found) << "no selection span recorded";
}

// ---- Cost-model mode ----

TEST(SelectorCost, RanksApplicableEntriesByModel) {
  Selector sel;
  sel.set_use_cost_model(true);
  const auto pick = select_ag(2, 4, 4096, nullptr, &sel);
  EXPECT_EQ(pick.reason, "allgather:cost-model");
  // Whatever wins must be applicable to a 2x4 world shape.
  ASSERT_NE(pick.algo, nullptr);
  EXPECT_TRUE(static_cast<bool>(pick.algo->cost));
}

TEST(SelectorCost, EnvOverrideStillWins) {
  EnvGuard guard(kAllgatherAlgoEnv, "ring");
  Selector sel;
  sel.set_use_cost_model(true);
  const auto pick = select_ag(2, 4, 4096, nullptr, &sel);
  EXPECT_EQ(pick.name(), "ring");
}

// ---- The dispatchers still produce correct results end-to-end ----

TEST(SelectorDispatch, MhaAllgatherMatchesDataOnEveryPath) {
  const auto fn = [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                     std::size_t m, bool ip) {
    return mha_allgather(c, r, s, rv, m, ip);
  };
  check_allgather(fn, 1, 4, 1024);    // rd_or_bruck path
  check_allgather(fn, 1, 4, 32768);   // mha_intra path
  check_allgather(fn, 2, 4, 512);     // mha_inter_rd path
  check_allgather(fn, 3, 2, 65536);   // mha_inter_ring path
}

}  // namespace
}  // namespace hmca::core
