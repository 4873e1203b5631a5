// The collective-algorithm registry: bootstrap contents, lookup/error
// behavior, applicability predicates, cost hooks, and running registered
// entries end-to-end through the data-mode checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "coll/registry.hpp"
#include "core/selector.hpp"
#include "hw/spec.hpp"
#include "model/params.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::coll {
namespace {

using hmca::testing::check_allgather;
using hmca::testing::check_allreduce;

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

TEST(Registry, FlatAlgorithmsAreBootstrapped) {
  auto& reg = Registry::instance();
  for (const char* name : {"ring", "rd", "bruck", "direct", "rd_or_bruck",
                           "multi_leader2", "multi_leader1",
                           "node_aware_bruck"}) {
    EXPECT_NE(reg.allgather.find(name), nullptr) << name;
  }
  EXPECT_NE(reg.allreduce.find("rd"), nullptr);
  EXPECT_NE(reg.allreduce.find("ring"), nullptr);
  EXPECT_NE(reg.bcast.find("binomial"), nullptr);
  EXPECT_NE(reg.allgatherv.find("ring"), nullptr);
}

TEST(Registry, CoreAlgorithmsRegisterIdempotently) {
  core::register_core_algorithms();
  core::register_core_algorithms();  // second call must not throw (duplicates)
  auto& reg = Registry::instance();
  const auto names = reg.allgather.names();
  for (const char* name : {"mha_intra", "mha_inter_rd", "mha_inter_ring",
                           "mha_inter", "mha_inter_barrier", "single_leader",
                           "hier2", "hier3"}) {
    EXPECT_TRUE(contains(names, name)) << name;
  }
  EXPECT_NE(reg.allreduce.find("ring_mha"), nullptr);
  EXPECT_NE(reg.bcast.find("mha"), nullptr);
  EXPECT_NE(reg.allgatherv.find("mha"), nullptr);
}

TEST(Registry, UnknownNameThrowsListingCandidates) {
  auto& reg = Registry::instance();
  EXPECT_EQ(reg.allgather.find("no_such_algo"), nullptr);
  try {
    reg.allgather.get("no_such_algo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_algo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ring"), std::string::npos) << msg;  // lists known names
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  auto& reg = Registry::instance();
  AllgatherAlgo dup;
  dup.name = "ring";
  dup.summary = "dup";
  dup.fn = reg.allgather.get("bruck").fn;
  try {
    reg.allgather.add(std::move(dup));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, RejectsUnnamedOrEmptyEntries) {
  auto& reg = Registry::instance();
  AllgatherAlgo unnamed;
  unnamed.fn = reg.allgather.get("ring").fn;
  EXPECT_THROW(reg.allgather.add(std::move(unnamed)), std::invalid_argument);
  AllgatherAlgo no_fn;
  no_fn.name = "ghost";
  EXPECT_THROW(reg.allgather.add(std::move(no_fn)), std::invalid_argument);
}

TEST(Registry, CommShapeOfWorldAndSubComms) {
  auto spec = hw::ClusterSpec::thor(3, 4);
  sim::Engine eng;
  mpi::World world(eng, spec);

  const auto ws = CommShape::of(world.comm_world());
  EXPECT_EQ(ws.comm_size, 12);
  EXPECT_EQ(ws.nodes, 3);
  EXPECT_EQ(ws.ppn, 4);
  EXPECT_TRUE(ws.world);

  const auto ns = CommShape::of(world.node_comm(1));
  EXPECT_EQ(ns.comm_size, 4);
  EXPECT_EQ(ns.nodes, 1);
  EXPECT_FALSE(ns.world);

  const auto ls = CommShape::of(world.leader_comm());
  EXPECT_EQ(ls.comm_size, 3);
  EXPECT_EQ(ls.nodes, 3);
  EXPECT_FALSE(ls.world);
}

TEST(Registry, ApplicabilityPredicatesEncodeLayoutRequirements) {
  core::register_core_algorithms();
  auto& reg = Registry::instance();

  CommShape world_2x4;
  world_2x4.comm_size = 8;
  world_2x4.nodes = 2;
  world_2x4.ppn = 4;
  world_2x4.world = true;

  CommShape subset = world_2x4;
  subset.world = false;

  CommShape odd_nodes = world_2x4;
  odd_nodes.comm_size = 12;
  odd_nodes.nodes = 3;

  const auto& rd = reg.allgather.get("rd");
  EXPECT_TRUE(rd.applies(world_2x4, 64));  // 8 ranks: power of two
  CommShape nine = subset;
  nine.comm_size = 9;
  EXPECT_FALSE(rd.applies(nine, 64));

  const auto& ml2 = reg.allgather.get("multi_leader2");
  EXPECT_TRUE(ml2.applies(world_2x4, 64));
  EXPECT_FALSE(ml2.applies(subset, 64));  // needs node-major world

  const auto& inter_rd = reg.allgather.get("mha_inter_rd");
  EXPECT_TRUE(inter_rd.applies(world_2x4, 64));
  EXPECT_FALSE(inter_rd.applies(odd_nodes, 64));  // non-p2 node count

  const auto& intra = reg.allgather.get("mha_intra");
  EXPECT_FALSE(intra.applies(world_2x4, 64));  // multi-node

  const auto& ar_ring = reg.allreduce.get("ring");
  EXPECT_TRUE(ar_ring.applies(world_2x4, 16, 8));   // 16 % 8 == 0
  EXPECT_FALSE(ar_ring.applies(world_2x4, 15, 8));  // indivisible count
}

TEST(Registry, CostHooksRankRdUnderRingForSmallMessages) {
  core::register_core_algorithms();
  auto& reg = Registry::instance();
  const auto params =
      model::ModelParams::from_spec(hw::ClusterSpec::thor(8, 1));
  CommShape s;
  s.comm_size = 8;
  s.nodes = 8;
  s.ppn = 1;
  s.world = true;
  const auto& rd = reg.allgather.get("rd");
  const auto& ring = reg.allgather.get("ring");
  ASSERT_TRUE(static_cast<bool>(rd.cost));
  ASSERT_TRUE(static_cast<bool>(ring.cost));
  // alpha-dominated: log2(8)=3 steps beat 7 ring steps.
  EXPECT_LT(rd.cost(params, s, 64), ring.cost(params, s, 64));
}

// Registered entries must be runnable as-is (the fn field is the same
// callable the selector and --algo hand out).
TEST(Registry, RegisteredEntriesRunEndToEnd) {
  core::register_core_algorithms();
  auto& reg = Registry::instance();
  check_allgather(reg.allgather.get("node_aware_bruck").fn, 2, 4, 1024);
  check_allgather(reg.allgather.get("multi_leader2").fn, 2, 4, 512);
  check_allgather(reg.allgather.get("mha_inter").fn, 2, 4, 4096);
  check_allreduce(reg.allreduce.get("ring_mha").fn, 2, 4, 64,
                  mpi::ReduceOp::kSum);
}

}  // namespace
}  // namespace hmca::coll
