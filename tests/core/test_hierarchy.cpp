// The declarative HierarchySpec API (core/hierarchy.hpp): spec validation
// and derivation, JSON round-trips, resolution invariants (partition,
// nesting, leaders), byte-identity of depth 2 with allgather_hierarchical
// and of depth 3 with the retired socket engine's pinned latencies, n-level
// correctness on custom/adapter-group levels, the
// selector's depth routing, HMCA_HIERARCHY, and the multi-socket win the
// deeper hierarchy exists for.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/hier_detail.hpp"
#include "core/hierarchy.hpp"
#include "core/selector.hpp"
#include "obs/critical_path.hpp"
#include "obs/names.hpp"
#include "obs/sink.hpp"
#include "osu/env.hpp"
#include "osu/harness.hpp"
#include "shm/shm.hpp"
#include "testing/coll_testing.hpp"
#include "trace/trace.hpp"

namespace hmca::core {
namespace {

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

HierLevel level(LevelKind k, LevelTransport t = LevelTransport::kAuto,
                std::vector<int> firsts = {}) {
  HierLevel l;
  l.kind = k;
  l.transport = t;
  l.custom_firsts = std::move(firsts);
  return l;
}

coll::AllgatherFn fn_spec(HierarchySpec hs) {
  return [hs](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
              std::size_t m, bool ip) {
    return allgather_hierarchy(c, r, s, rv, m, ip, hs);
  };
}

/// Data-mode correctness check over an arbitrary ClusterSpec (the shared
/// check_allgather helper is hardwired to flat thor nodes).
void check_hier(hw::ClusterSpec spec, const HierarchySpec& hs,
                std::size_t msg, bool in_place = false) {
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    auto recv = hw::Buffer::data(msg * static_cast<std::size_t>(p));
    hw::Buffer send = hw::Buffer::data(in_place ? 0 : msg);
    for (std::size_t i = 0; i < msg; ++i) {
      const auto b = hmca::testing::block_byte(r, i);
      if (in_place) {
        recv.bytes()[static_cast<std::size_t>(r) * msg + i] = b;
      } else {
        send.bytes()[i] = b;
      }
    }
    sends.push_back(std::move(send));
    recvs.push_back(std::move(recv));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(hmca::testing::ag_rank_program(
        comm, fn_spec(hs), r, sends[static_cast<std::size_t>(r)].view(),
        recvs[static_cast<std::size_t>(r)].view(), msg, in_place));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < msg; ++i) {
        const auto got = recvs[static_cast<std::size_t>(r)]
                             .bytes()[static_cast<std::size_t>(src) * msg + i];
        ASSERT_EQ(got, hmca::testing::block_byte(src, i))
            << "rank " << r << " block " << src << " byte " << i;
      }
    }
  }
}

sim::Task<void> bc_rank(mpi::Comm& comm, int r, hw::BufView d,
                        HierarchySpec hs, std::size_t chunk) {
  co_await bcast_hierarchy(comm, r, /*root=*/0, d, std::move(hs), chunk);
}

void check_bcast(hw::ClusterSpec spec, const HierarchySpec& hs,
                 std::size_t len, std::size_t chunk) {
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < p; ++r) {
    auto b = hw::Buffer::data(len);
    if (r == 0) {
      for (std::size_t i = 0; i < len; ++i) {
        b.bytes()[i] = hmca::testing::block_byte(0, i);
      }
    }
    bufs.push_back(std::move(b));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(bc_rank(comm, r, bufs[static_cast<std::size_t>(r)].view(), hs,
                      chunk));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)].bytes()[i],
                hmca::testing::block_byte(0, i))
          << "rank " << r << " byte " << i;
    }
  }
}

// ---- Spec validation and derivation ----

TEST(HierarchySpecTest, MhaIsAValidDepth2Spec) {
  const auto s = HierarchySpec::mha();
  EXPECT_EQ(s.depth(), 2);
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.levels.front().kind, LevelKind::kNode);
  EXPECT_EQ(s.levels.back().kind, LevelKind::kCluster);
}

TEST(HierarchySpecTest, ValidationRejectsMalformedShapes) {
  HierarchySpec s;
  EXPECT_THROW(s.validate(), HierarchyError);  // empty
  s.levels = {level(LevelKind::kNode)};
  EXPECT_THROW(s.validate(), HierarchyError);  // depth 1
  s.levels = {level(LevelKind::kCluster), level(LevelKind::kNode)};
  EXPECT_THROW(s.validate(), HierarchyError);  // cluster not outermost
  s.levels = {level(LevelKind::kSocket), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // node missing
  s.levels = {level(LevelKind::kNode), level(LevelKind::kNode),
              level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // node twice
  s.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {1, 2}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // firsts must start at 0
  s.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2, 2}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // not strictly ascending
  s.levels = {level(LevelKind::kSocket, LevelTransport::kAuto, {0, 2}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // firsts on non-custom
}

TEST(HierarchySpecTest, TransportPlacementRules) {
  // RD belongs to the cluster level only.
  HierarchySpec s;
  s.levels = {level(LevelKind::kNode, LevelTransport::kRd),
              level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);
  s.levels = {level(LevelKind::kNode),
              level(LevelKind::kCluster, LevelTransport::kRd)};
  EXPECT_NO_THROW(s.validate());
  // MHA-intra is an innermost-level transport.
  s.levels = {level(LevelKind::kSocket),
              level(LevelKind::kNode, LevelTransport::kMhaIntra),
              level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);
  s.levels = {level(LevelKind::kSocket, LevelTransport::kMhaIntra),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_NO_THROW(s.validate());
  // Shm: innermost of a depth-2 spec, or any intermediate level.
  s.levels = {level(LevelKind::kNode, LevelTransport::kShm),
              level(LevelKind::kCluster)};
  EXPECT_NO_THROW(s.validate());
  s.levels = {level(LevelKind::kSocket, LevelTransport::kShm),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);
  s.levels = {level(LevelKind::kSocket),
              level(LevelKind::kNode, LevelTransport::kShm),
              level(LevelKind::kCluster)};
  EXPECT_NO_THROW(s.validate());
}

TEST(HierarchySpecTest, DeriveFollowsTopology) {
  const auto flat = hw::ClusterSpec::thor(4, 8);
  const auto numa = hw::ClusterSpec::thor_numa(4, 8);
  EXPECT_EQ(HierarchySpec::derive(flat, 0).depth(), 2);
  EXPECT_EQ(HierarchySpec::derive(numa, 0).depth(), 3);
  EXPECT_EQ(HierarchySpec::derive(numa, 2).depth(), 2);
  // Explicit depth 3 on flat nodes collapses: a one-socket level is a
  // no-op stage.
  EXPECT_EQ(HierarchySpec::derive(flat, 3).depth(), 2);
  EXPECT_THROW(HierarchySpec::derive(flat, 4), HierarchyError);
  EXPECT_THROW(HierarchySpec::derive(flat, 1), HierarchyError);
}

TEST(HierarchySpecTest, JsonRoundTrip) {
  HierarchySpec s;
  s.levels = {level(LevelKind::kCustom, LevelTransport::kCma, {0, 2}),
              level(LevelKind::kNode),
              level(LevelKind::kCluster, LevelTransport::kRing)};
  const std::string text = s.to_json();
  const auto back = HierarchySpec::from_json(text);
  EXPECT_EQ(back.depth(), 3);
  EXPECT_EQ(back.levels[0].kind, LevelKind::kCustom);
  EXPECT_EQ(back.levels[0].transport, LevelTransport::kCma);
  EXPECT_EQ(back.levels[0].custom_firsts, (std::vector<int>{0, 2}));
  EXPECT_EQ(back.levels[2].transport, LevelTransport::kRing);
  EXPECT_EQ(back.to_json(), text);

  EXPECT_THROW(HierarchySpec::from_json("not json"), HierarchyError);
  EXPECT_THROW(HierarchySpec::from_json("{}"), HierarchyError);
  EXPECT_THROW(HierarchySpec::from_json(
                   R"({"levels": [{"kind": "flux"}, {"kind": "cluster"}]})"),
               HierarchyError);
}

TEST(HierarchySpecTest, DeeplyNestedJsonIsANamedError) {
  try {
    HierarchySpec::from_json(std::string(200000, '['));
    FAIL() << "expected HierarchyError";
  } catch (const HierarchyError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}

// ---- Resolution invariants ----

/// Every level must partition the world into ascending contiguous spans,
/// leaders must be group-first ranks, inner levels must refine outer ones,
/// and group_of must agree with the materialized groups.
void expect_resolved_invariants(const Hierarchy& h, int world_size) {
  const auto& lv = h.levels();
  ASSERT_EQ(static_cast<int>(lv.size()), h.depth());
  for (std::size_t l = 0; l < lv.size(); ++l) {
    const auto& gs = lv[l].groups;
    ASSERT_FALSE(gs.empty()) << "level " << l;
    int next = 0;
    for (std::size_t g = 0; g < gs.size(); ++g) {
      EXPECT_EQ(gs[g].first, next) << "level " << l << " group " << g;
      EXPECT_GT(gs[g].size, 0) << "level " << l << " group " << g;
      EXPECT_EQ(gs[g].leader, gs[g].first) << "level " << l << " group " << g;
      next = gs[g].first + gs[g].size;
    }
    EXPECT_EQ(next, world_size) << "level " << l << " does not cover world";
    for (int r = 0; r < world_size; ++r) {
      const int g = h.group_of(static_cast<int>(l), r);
      EXPECT_LE(gs[static_cast<std::size_t>(g)].first, r);
      EXPECT_LT(r, gs[static_cast<std::size_t>(g)].first +
                       gs[static_cast<std::size_t>(g)].size);
    }
  }
  // Refinement: every outer boundary is an inner boundary.
  for (std::size_t l = 0; l + 1 < lv.size(); ++l) {
    for (const auto& outer : lv[l + 1].groups) {
      bool found = false;
      for (const auto& inner : lv[l].groups) {
        if (inner.first == outer.first) found = true;
      }
      EXPECT_TRUE(found) << "outer level " << l + 1 << " boundary "
                         << outer.first << " not an inner boundary";
    }
  }
}

TEST(HierarchyResolve, InvariantsAcrossSpecsAndTopologies) {
  struct Combo {
    hw::ClusterSpec spec;
    HierarchySpec hs;
  };
  auto uneven = hw::ClusterSpecBuilder(hw::ClusterSpec::thor_numa(2, 8))
                    .ppn(7)
                    .build();
  std::vector<Combo> combos = {
      {hw::ClusterSpec::thor(4, 8), HierarchySpec::mha()},
      {hw::ClusterSpec::thor_numa(2, 8),
       HierarchySpec::derive(hw::ClusterSpec::thor_numa(2, 8), 3)},
      {uneven, HierarchySpec::derive(uneven, 3)},
  };
  // Adapter-group level on a 4-rail node.
  Combo ag;
  ag.spec = hw::ClusterSpec::multi_rail(2, 8, 4);
  ag.hs.levels = {level(LevelKind::kAdapterGroup), level(LevelKind::kNode),
                  level(LevelKind::kCluster)};
  combos.push_back(ag);
  // Custom depth-4: pairs < halves < node < cluster on ppn 8.
  Combo c4;
  c4.spec = hw::ClusterSpec::thor(2, 8);
  c4.hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto,
                        {0, 2, 4, 6}),
                  level(LevelKind::kCustom, LevelTransport::kAuto, {0, 4}),
                  level(LevelKind::kNode), level(LevelKind::kCluster)};
  combos.push_back(c4);

  for (std::size_t i = 0; i < combos.size(); ++i) {
    SCOPED_TRACE("combo " + std::to_string(i));
    sim::Engine eng;
    hw::Cluster cl(eng, combos[i].spec);
    const Hierarchy h(combos[i].hs, cl);
    expect_resolved_invariants(h, cl.world_size());
  }
}

TEST(HierarchyResolve, UnevenSocketsGetBlockSpans) {
  // L=7, S=2 -> sockets {4, 3}: the socket level's node-local groups match
  // the cluster's block distribution.
  auto spec = hw::ClusterSpecBuilder(hw::ClusterSpec::thor_numa(2, 8))
                  .ppn(7)
                  .build();
  sim::Engine eng;
  hw::Cluster cl(eng, spec);
  const Hierarchy h(HierarchySpec::derive(spec, 3), cl);
  const auto& sockets = h.levels().front().groups;
  ASSERT_EQ(sockets.size(), 4u);  // 2 nodes x 2 sockets
  EXPECT_EQ(sockets[0].size, 4);
  EXPECT_EQ(sockets[1].size, 3);
  EXPECT_EQ(sockets[2].first, 7);
  EXPECT_EQ(sockets[2].size, 4);
  EXPECT_EQ(sockets[3].size, 3);
  EXPECT_EQ(h.structure(), "cluster:1>node:2>socket:4");
}

TEST(HierarchyResolve, RejectsSpecTopologyMismatch) {
  sim::Engine eng;
  hw::Cluster cl(eng, hw::ClusterSpec::thor(2, 4));
  // Custom boundary beyond ppn.
  HierarchySpec s;
  s.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 5}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(Hierarchy(s, cl), HierarchyError);
  // Adapter groups need hcas <= ppn.
  sim::Engine eng2;
  hw::Cluster wide(eng2, hw::ClusterSpec::multi_rail(2, 2, 3));
  HierarchySpec a;
  a.levels = {level(LevelKind::kAdapterGroup), level(LevelKind::kNode),
              level(LevelKind::kCluster)};
  EXPECT_THROW(Hierarchy(a, wide), HierarchyError);
  // Non-nesting custom levels: {0,3} does not refine under {0,2}.
  HierarchySpec n;
  n.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2}),
              level(LevelKind::kCustom, LevelTransport::kAuto, {0, 3}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(Hierarchy(n, cl), HierarchyError);
}

// ---- Byte-identity with allgather_hierarchical and the pinned engine ----

TEST(HierarchyApi, Depth2IsMetricIdenticalToMhaInter) {
  const auto spec = hw::ClusterSpec::thor(4, 4);
  for (std::size_t msg : {std::size_t{4096}, std::size_t{262144}}) {
    const double t_spec =
        osu::measure_allgather(spec, fn_spec(HierarchySpec::mha()), msg);
    const double t_hist = osu::measure_allgather(
        spec,
        [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
           bool ip) {
          return allgather_hierarchical(c, r, s, rv, m, ip, HierOptions{});
        },
        msg);
    EXPECT_EQ(t_spec, t_hist) << "msg=" << msg;  // exact: same event stream
  }
}

TEST(HierarchyApi, Depth3MatchesNumaEnginePins) {
  // Latencies of the dedicated two-stage socket engine that the staged
  // NodePlan replaced, measured before its removal: the plan must
  // reproduce them exactly, even and uneven sockets alike.
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  EXPECT_EQ(osu::measure_allgather(
                spec, fn_spec(HierarchySpec::derive(spec, 3)), 65536),
            0x1.214255f045582p-12);
  const auto uneven = hw::ClusterSpecBuilder(spec).ppn(7).build();
  EXPECT_EQ(osu::measure_allgather(
                uneven, fn_spec(HierarchySpec::derive(uneven, 3)), 4096),
            0x1.6594cf1370cc8p-16);
}

// ---- n-level correctness ----

TEST(HierarchyApi, CustomDepth4GathersCorrectly) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2, 4, 6}),
               level(LevelKind::kCustom, LevelTransport::kAuto, {0, 4}),
               level(LevelKind::kNode), level(LevelKind::kCluster)};
  check_hier(hw::ClusterSpec::thor(2, 8), hs, 4096);
  check_hier(hw::ClusterSpec::thor(3, 8), hs, 100);  // non-p2, odd bytes
  check_hier(hw::ClusterSpec::thor(2, 8), hs, 2048, /*in_place=*/true);
}

TEST(HierarchyApi, AdapterGroupDepth3GathersCorrectly) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kAdapterGroup), level(LevelKind::kNode),
               level(LevelKind::kCluster)};
  check_hier(hw::ClusterSpec::multi_rail(2, 8, 4), hs, 4096);
  // hcas (3) does not divide ppn (8): groups {3, 3, 2}.
  check_hier(hw::ClusterSpec::multi_rail(2, 8, 3), hs, 1024);
}

TEST(HierarchyApi, UnevenSocketsGatherCorrectly) {
  // ppn 7 splits the sockets {4, 3}; ppn 3 gives {2, 1}, where socket 1's
  // only rank is its own group leader.
  for (const int ppn : {7, 3}) {
    SCOPED_TRACE("ppn " + std::to_string(ppn));
    auto spec = hw::ClusterSpecBuilder(hw::ClusterSpec::thor_numa(2, 8))
                    .ppn(ppn)
                    .build();
    check_hier(spec, HierarchySpec::derive(spec, 0), 4096);
    check_hier(spec, HierarchySpec::derive(spec, 0), 513, /*in_place=*/true);
  }
}

TEST(HierarchyApi, UnevenCustomGroupsGatherCorrectly) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 3}),
               level(LevelKind::kNode), level(LevelKind::kCluster)};
  check_hier(hw::ClusterSpec::thor(2, 5), hs, 2048);
}

// ---- Hierarchy-aware bcast ----

TEST(HierarchyBcast, Depth2DelegatesToMhaBcast) {
  check_bcast(hw::ClusterSpec::thor(2, 4), HierarchySpec::mha(), 8192, 4096);
}

TEST(HierarchyBcast, Depth3CascadeDelivers) {
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  check_bcast(spec, HierarchySpec::derive(spec, 3), 16384, 4096);
  // Pipeline chunk larger than the payload: single-chunk path.
  check_bcast(spec, HierarchySpec::derive(spec, 3), 1000, 1 << 20);
}

TEST(HierarchyBcast, CustomDepth4CascadeDelivers) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2, 4, 6}),
               level(LevelKind::kCustom, LevelTransport::kAuto, {0, 4}),
               level(LevelKind::kNode), level(LevelKind::kCluster)};
  check_bcast(hw::ClusterSpec::thor(2, 8), hs, 12000, 4096);
}

TEST(HierarchyBcast, Depth3CascadeAttributesPhasesOnEveryRank) {
  // The same phases mha_bcast records: handoff + leader bcast as phase 2,
  // the shared-memory cascade as phase 3 — on members too, not only on
  // the leaders that drive the inter-node stage.
  const auto spec = hw::ClusterSpec::thor_numa(2, 4);
  trace::Tracer tracer;
  sim::Engine eng;
  mpi::World world(eng, spec, &tracer);
  auto& comm = world.comm_world();
  auto buf = hw::Buffer::phantom(64 * 1024);
  for (int r = 0; r < comm.size(); ++r) {
    eng.spawn(bc_rank(comm, r, buf.view(), HierarchySpec::derive(spec, 0),
                      256 * 1024));
  }
  eng.run();
  std::vector<int> p2(static_cast<std::size_t>(comm.size()));
  std::vector<int> p3(p2.size());
  for (const auto& s : tracer.spans()) {
    if (s.kind != trace::Kind::kPhase) continue;
    const auto r = static_cast<std::size_t>(s.rank);
    if (s.label == obs::names::kPhase2) ++p2[r];
    if (s.label == obs::names::kPhase3) ++p3[r];
  }
  for (int r = 0; r < comm.size(); ++r) {
    EXPECT_EQ(p2[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(p3[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

// ---- Selector depth routing and the env override ----

TEST(SelectorDepth, FlatNodesKeepPaperThresholds) {
  const auto spec = hw::ClusterSpec::thor(4, 4);
  sim::Engine eng;
  mpi::World world(eng, spec);
  const auto sel =
      default_selector().select_allgather(world.comm_world(), 0, 65536);
  EXPECT_EQ(sel.reason.rfind("allgather:threshold:fig8", 0), 0u) << sel.reason;
}

TEST(SelectorDepth, MultiSocketWorldsRouteToDepth3) {
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  sim::Engine eng;
  mpi::World world(eng, spec);
  const auto sel =
      default_selector().select_allgather(world.comm_world(), 0, 65536);
  EXPECT_EQ(sel.name(), "hier3");
  EXPECT_EQ(sel.reason, "allgather:depth:cluster:1>node:2>socket:4");
}

TEST(SelectorDepth, CommShapeAgreesWithDerive) {
  coll::CommShape s;
  s.nodes = 4;
  s.sockets = 2;
  EXPECT_EQ(s.natural_depth(), 3);
  EXPECT_EQ(s.level_structure(), "cluster:1>node:4>socket:8");
  s.sockets = 1;
  EXPECT_EQ(s.natural_depth(), 2);
  EXPECT_EQ(s.level_structure(), "cluster:1>node:4");
  s.nodes = 1;
  s.sockets = 2;
  EXPECT_EQ(s.natural_depth(), 2);
}

TEST(SelectorDepth, EnvOverridePinsDepth) {
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  {
    EnvGuard env(osu::Env::kHierarchy, "2");
    sim::Engine eng;
    mpi::World world(eng, spec);
    const auto sel =
        default_selector().select_allgather(world.comm_world(), 0, 65536);
    EXPECT_EQ(sel.name(), "hier2");
    EXPECT_EQ(sel.reason, std::string("allgather:env:") + osu::Env::kHierarchy);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "auto");
    sim::Engine eng;
    mpi::World world(eng, spec);
    const auto sel =
        default_selector().select_allgather(world.comm_world(), 0, 65536);
    EXPECT_EQ(sel.name(), "hier3");  // auto = policy decides
  }
}

TEST(HierarchyEnv, ParsesDepthsFilesAndRejectsJunk) {
  const auto numa = hw::ClusterSpec::thor_numa(2, 8);
  EXPECT_FALSE(hierarchy_from_env(numa).has_value());
  {
    EnvGuard env(osu::Env::kHierarchy, "3");
    const auto hs = hierarchy_from_env(numa);
    ASSERT_TRUE(hs.has_value());
    EXPECT_EQ(hs->depth(), 3);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "auto");
    EXPECT_FALSE(hierarchy_from_env(numa).has_value());
  }
  const std::string path = ::testing::TempDir() + "hmca_hier_spec.json";
  {
    std::ofstream out(path);
    out << HierarchySpec::mha().to_json();
  }
  {
    EnvGuard env(osu::Env::kHierarchy, ("@" + path).c_str());
    const auto hs = hierarchy_from_env(numa);
    ASSERT_TRUE(hs.has_value());
    EXPECT_EQ(hs->depth(), 2);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "@/nonexistent/spec.json");
    EXPECT_THROW(hierarchy_from_env(numa), HierarchyError);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "banana");
    EXPECT_THROW(hierarchy_from_env(numa), HierarchyError);
  }
}

// ---- Key allocation / grouping primitives ----

TEST(HierDetail, GroupOfFindsEnclosingSpan) {
  const std::vector<int> firsts = {0, 4, 7};
  EXPECT_EQ(detail::group_of(firsts, 0), 0);
  EXPECT_EQ(detail::group_of(firsts, 3), 0);
  EXPECT_EQ(detail::group_of(firsts, 4), 1);
  EXPECT_EQ(detail::group_of(firsts, 6), 1);
  EXPECT_EQ(detail::group_of(firsts, 7), 2);
  EXPECT_EQ(detail::group_of(firsts, 100), 2);
}

TEST(HierDetail, OpKeysSeparateSaltAndContext) {
  EXPECT_NE(shm::op_key(1, 5, 1), shm::op_key(1, 5, 2));
  EXPECT_NE(shm::op_key(1, 5, 1), shm::op_key(2, 5, 1));
  EXPECT_NE(shm::op_key(1, 5, 1), shm::op_key(1, 6, 1));
  // The layout every node-share key uses: (seq << 20) | (ctx << 4) | salt.
  EXPECT_EQ(shm::op_key(3, 5, 7), (5ull << 20) | (3ull << 4) | 7ull);
}

// ---- The point of depth 3: multi-socket wins, telemetry-confirmed ----

TEST(HierarchyPerf, Depth3BeatsDepth2OnConstrainedUpi) {
  auto spec = hw::ClusterSpec::thor_numa(1, 32);
  spec.upi_bw = 8e9;  // older QPI parts: the link binds
  spec.carry_data = false;
  const std::size_t msg = 1u << 20;

  trace::Tracer tr2, tr3;
  const double t2 = osu::measure_allgather(
      spec, fn_spec(HierarchySpec::derive(spec, 2)), msg, &tr2);
  const double t3 = osu::measure_allgather(
      spec, fn_spec(HierarchySpec::derive(spec, 3)), msg, &tr3);
  EXPECT_LT(t3, 0.95 * t2);

  // Telemetry cross-check: the critical-path analysis over the captured
  // spans must agree with the measured makespans — the win is visible in
  // the span structure, not only the clock.
  const auto cp2 = obs::analyze_critical_path(tr2.spans());
  const auto cp3 = obs::analyze_critical_path(tr3.spans());
  ASSERT_FALSE(cp2.empty());
  ASSERT_FALSE(cp3.empty());
  const double end2 = cp2.steps.back().t1;
  const double end3 = cp3.steps.back().t1;
  EXPECT_LE(end2, t2 * (1 + 1e-9));
  EXPECT_GE(end2, 0.9 * t2);
  EXPECT_LE(end3, t3 * (1 + 1e-9));
  EXPECT_GE(end3, 0.9 * t3);
  EXPECT_LT(end3, 0.95 * end2);
}

}  // namespace
}  // namespace hmca::core
