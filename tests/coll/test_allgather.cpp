// Correctness of the flat Allgather algorithms across topologies, message
// sizes and in-place operation, plus algorithm-specific structural checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <tuple>

#include "coll/allgather.hpp"
#include "coll/graph.hpp"
#include "core/hierarchy.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::coll {
namespace {

using hmca::testing::check_allgather;

coll::AllgatherFn fn_ring() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) { return allgather_ring(c, r, s, rv, m, ip); };
}
coll::AllgatherFn fn_rd() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) { return allgather_rd(c, r, s, rv, m, ip); };
}
coll::AllgatherFn fn_bruck() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) { return allgather_bruck(c, r, s, rv, m, ip); };
}
coll::AllgatherFn fn_direct() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) { return allgather_direct(c, r, s, rv, m, ip); };
}
coll::AllgatherFn fn_multi_leader(int groups) {
  return [groups](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                  std::size_t m, bool ip) {
    return allgather_multi_leader(c, r, s, rv, m, ip, groups);
  };
}

TEST(Helpers, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(2), 1);
  EXPECT_EQ(log2_floor(47), 5);
  EXPECT_EQ(log2_floor(64), 6);
}

// ---- Parameterized correctness sweep: (nodes, ppn, msg) ----

using Topo = std::tuple<int, int, std::size_t>;

class AllgatherSweep : public ::testing::TestWithParam<Topo> {};

TEST_P(AllgatherSweep, Ring) {
  auto [nodes, ppn, msg] = GetParam();
  check_allgather(fn_ring(), nodes, ppn, msg);
}

TEST_P(AllgatherSweep, Bruck) {
  auto [nodes, ppn, msg] = GetParam();
  check_allgather(fn_bruck(), nodes, ppn, msg);
}

TEST_P(AllgatherSweep, Direct) {
  auto [nodes, ppn, msg] = GetParam();
  check_allgather(fn_direct(), nodes, ppn, msg);
}

TEST_P(AllgatherSweep, RdOrBruck) {
  auto [nodes, ppn, msg] = GetParam();
  check_allgather(
      [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
         bool ip) { return allgather_rd_or_bruck(c, r, s, rv, m, ip); },
      nodes, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, AllgatherSweep,
    ::testing::Values(Topo{1, 1, 64}, Topo{1, 2, 128}, Topo{1, 4, 1024},
                      Topo{1, 7, 96},                    // odd PPN
                      Topo{2, 1, 256}, Topo{2, 2, 4096}, // small inter
                      Topo{3, 2, 512},                   // non-p2 nodes
                      Topo{4, 4, 64}, Topo{4, 4, 65536}, // rendezvous sizes
                      Topo{5, 3, 1000},                  // odd everything
                      Topo{8, 2, 2048}));

// RD only on power-of-two communicator sizes.
class AllgatherRdSweep : public ::testing::TestWithParam<Topo> {};

TEST_P(AllgatherRdSweep, Rd) {
  auto [nodes, ppn, msg] = GetParam();
  check_allgather(fn_rd(), nodes, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, AllgatherRdSweep,
                         ::testing::Values(Topo{1, 2, 64}, Topo{1, 8, 512},
                                           Topo{2, 2, 4096}, Topo{4, 4, 1024},
                                           Topo{2, 4, 65536}, Topo{8, 1, 256}));

TEST(AllgatherRd, RejectsNonPowerOfTwo) {
  EXPECT_THROW(check_allgather(fn_rd(), 3, 1, 64), std::invalid_argument);
}

// ---- In-place operation ----

TEST(AllgatherInPlace, Ring) { check_allgather(fn_ring(), 2, 3, 512, true); }
TEST(AllgatherInPlace, Rd) { check_allgather(fn_rd(), 2, 2, 512, true); }
TEST(AllgatherInPlace, Bruck) { check_allgather(fn_bruck(), 3, 2, 512, true); }
TEST(AllgatherInPlace, Direct) {
  check_allgather(fn_direct(), 2, 2, 512, true);
}

// ---- Argument validation ----

TEST(AllgatherArgs, BadSizesThrow) {
  auto spec = hw::ClusterSpec::thor(1, 2);
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto send = hw::Buffer::data(64);
  auto recv = hw::Buffer::data(100);  // not 2*64
  auto t = [&]() -> sim::Task<void> {
    co_await allgather_ring(comm, 0, send.view(), recv.view(), 64, false);
  };
  eng.spawn(t());
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

// ---- Multi-leader two-level baseline ----

class MultiLeaderSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, std::size_t>> {
};

TEST_P(MultiLeaderSweep, GathersCorrectly) {
  auto [nodes, ppn, groups, msg] = GetParam();
  check_allgather(fn_multi_leader(groups), nodes, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MultiLeaderSweep,
    ::testing::Values(std::tuple{2, 4, 2, 1024}, std::tuple{2, 4, 1, 512},
                      std::tuple{4, 2, 2, 2048}, std::tuple{3, 6, 3, 256},
                      std::tuple{2, 8, 4, 65536}, std::tuple{1, 4, 2, 512}));

TEST(MultiLeader, InPlace) {
  check_allgather(fn_multi_leader(2), 2, 4, 1024, true);
}

TEST(MultiLeader, RejectsIndivisibleGroups) {
  EXPECT_THROW(check_allgather(fn_multi_leader(3), 2, 4, 64),
               std::invalid_argument);
}

TEST(MultiLeader, RejectsNonPositiveGroups) {
  EXPECT_THROW(check_allgather(fn_multi_leader(0), 2, 4, 64),
               std::invalid_argument);
  EXPECT_THROW(check_allgather(fn_multi_leader(-2), 2, 4, 64),
               std::invalid_argument);
}

TEST(MultiLeader, RejectsMoreGroupsThanPpn) {
  // 8 groups cannot be carved out of 4 processes per node.
  EXPECT_THROW(check_allgather(fn_multi_leader(8), 2, 4, 64),
               std::invalid_argument);
}

TEST(MultiLeader, IndivisibleErrorNamesTheShape) {
  try {
    check_allgather(fn_multi_leader(3), 2, 4, 64);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ppn (4)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("groups (3)"), std::string::npos) << msg;
  }
}

// ---- Node-aware (locality-aware Bruck) Allgather ----

coll::AllgatherFn fn_node_aware_bruck() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) { return allgather_node_aware_bruck(c, r, s, rv, m, ip); };
}

class NodeAwareBruckSweep : public ::testing::TestWithParam<Topo> {};

TEST_P(NodeAwareBruckSweep, GathersCorrectly) {
  auto [nodes, ppn, msg] = GetParam();
  check_allgather(fn_node_aware_bruck(), nodes, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NodeAwareBruckSweep,
    ::testing::Values(Topo{1, 1, 64}, Topo{1, 4, 1024},   // degenerate intra
                      Topo{2, 1, 256},                    // leaders only
                      Topo{2, 4, 4096}, Topo{3, 2, 512},  // non-p2 nodes
                      Topo{5, 3, 1000},                   // odd everything
                      Topo{4, 4, 65536},                  // rendezvous sizes
                      Topo{8, 2, 2048}));

TEST(NodeAwareBruck, InPlace) {
  check_allgather(fn_node_aware_bruck(), 3, 4, 512, true);
}

TEST(NodeAwareBruck, RejectsSubsetCommunicator) {
  // Needs the node-major world communicator: run it on the leader comm.
  auto spec = hw::ClusterSpec::thor(2, 2);
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& lcomm = world.leader_comm();
  auto send = hw::Buffer::data(64);
  auto recv = hw::Buffer::data(64 * 2);
  auto t = [&]() -> sim::Task<void> {
    co_await allgather_node_aware_bruck(lcomm, 0, send.view(), recv.view(), 64,
                                        false);
  };
  eng.spawn(t());
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

// ---- Structural/performance sanity ----

TEST(AllgatherShape, RingSlowerThanRdForSmallManyRanks) {
  // alpha-dominated regime: RD's log(N) steps beat Ring's N-1.
  const double t_ring = check_allgather(fn_ring(), 8, 1, 64);
  const double t_rd = check_allgather(fn_rd(), 8, 1, 64);
  EXPECT_LT(t_rd, t_ring);
}

TEST(AllgatherShape, FlatRingBottleneckedByIntraNode) {
  // Fig. 2's lesson: with PPN > 1, the flat ring's intra-node hops are the
  // slow links. The same total data moved with 1 PPN over more nodes is
  // faster per byte... we check the direct symptom: a flat ring with 2
  // nodes x 2 PPN is slower than 2x the 2-node 1-PPN ring time would
  // suggest from pure scaling (extra intra-node serialization).
  const double t_22 = check_allgather(fn_ring(), 2, 2, 262144);
  const double t_21 = check_allgather(fn_ring(), 2, 1, 262144);
  EXPECT_GT(t_22, 1.5 * t_21);
}

// ---- Shared exchange builders ----

TEST(RingExchange, TagFallbackIsOneChunkPerBlock) {
  // Chunk c of ring step s uses tag s * kChunkTagStride + c. With 1 MiB
  // blocks (16 chunks) the last step of a 2049-block ring tops out at
  // 2047 * 32 + 15 = 65519 <= kMaxUserTag; at 2050 blocks it would not, so
  // every block goes whole.
  auto ring = [](int n, std::size_t big) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(n), 8);
    counts[1] = big;
    return VarLayout::from_counts(std::move(counts));
  };
  EXPECT_EQ(ring_exchange_publishes(ring(2049, 1u << 20), 0), 2047 + 16);
  EXPECT_EQ(ring_exchange_publishes(ring(2050, 1u << 20), 0), 2049);
  EXPECT_EQ(ring_exchange_publishes(ring(2049, 1u << 20), 1), 2048);
  EXPECT_EQ(rd_exchange_publishes(8, 1u << 20), 16 + 16 + 16);
  EXPECT_EQ(rd_exchange_publishes(8, 4096), 3);
}

// ---- Exact pins: the chunked Ring/RD exchange graphs ----
//
// Simulated latency (hex float) and dispatched engine events of runs that
// exercise every wiring rule of the shared exchange builders: multi-chunk
// steps, in-place seeding, the leader publish + member drain of the
// hierarchical Ring and the node-aware Bruck drain. Any change in task
// creation order, dependencies or tags moves at least one of them.

struct Pinned {
  double latency;
  std::uint64_t events;
};

Pinned run_pinned(const coll::AllgatherFn& fn, int nodes, int ppn,
                  std::size_t msg, bool in_place) {
  std::uint64_t events = 0;
  const double t = check_allgather(fn, nodes, ppn, msg, in_place, &events);
  return {t, events};
}

void expect_pin(const Pinned& got, double latency, std::uint64_t events) {
  EXPECT_EQ(got.latency, latency) << std::hexfloat << got.latency;
  EXPECT_EQ(got.events, events);
}

// Forces multi-chunk exchanges on small messages for the guarded scope.
struct ChunkBytes {
  explicit ChunkBytes(long long bytes) { set_chunk_bytes_override(bytes); }
  ~ChunkBytes() { set_chunk_bytes_override(-1); }
};

coll::AllgatherFn fn_mha_inter_ring() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) {
    return core::allgather_hierarchy(
        c, r, s, rv, m, ip,
        core::HierarchySpec::mha(core::LevelTransport::kAuto,
                                 core::LevelTransport::kRing));
  };
}

TEST(ExchangePin, Ring) {
  expect_pin(run_pinned(fn_ring(), 2, 4, 65536, false),
             0x1.070b2bcf2e39ap-14, 812);
  expect_pin(run_pinned(fn_ring(), 2, 4, 65536, true),
             0x1.c4c958041d23ep-15, 790);
  const ChunkBytes cb(16384);
  expect_pin(run_pinned(fn_ring(), 2, 4, 65536, false),
             0x1.c8c3b8c9d7774p-14, 4312);
  expect_pin(run_pinned(fn_ring(), 2, 4, 65536, true),
             0x1.a41d38fcb7cf7p-14, 4286);
}

TEST(ExchangePin, Rd) {
  expect_pin(run_pinned(fn_rd(), 2, 4, 65536, false),
             0x1.8e24191451bffp-14, 1033);
  expect_pin(run_pinned(fn_rd(), 2, 4, 65536, true),
             0x1.697d994732185p-14, 1007);
  const ChunkBytes cb(16384);
  expect_pin(run_pinned(fn_rd(), 2, 4, 65536, false),
             0x1.8e24191451bffp-14, 4097);
  expect_pin(run_pinned(fn_rd(), 2, 4, 65536, true),
             0x1.697d994732185p-14, 4071);
}

TEST(ExchangePin, NodeAwareBruck) {
  expect_pin(run_pinned(fn_node_aware_bruck(), 3, 4, 4096, false),
             0x1.bfb7949f68c1bp-16, 540);
  expect_pin(run_pinned(fn_node_aware_bruck(), 4, 8, 65537, false),
             0x1.f784b889a5b45p-11, 4960);
}

TEST(ExchangePin, MhaInterRing) {
  expect_pin(run_pinned(fn_mha_inter_ring(), 3, 1, 200000, false),
             0x1.b83fd8ab3ae67p-15, 519);
  expect_pin(run_pinned(fn_mha_inter_ring(), 3, 4, 200000, false),
             0x1.43af40eddce96p-12, 4382);
  expect_pin(run_pinned(fn_mha_inter_ring(), 3, 4, 4096, true),
             0x1.2586bfaab8e86p-16, 509);
}

TEST(ExchangePin, Direct) {
  expect_pin(run_pinned(fn_direct(), 2, 4, 65536, false),
             0x1.8e24191451cp-14, 1438);
  expect_pin(run_pinned(fn_direct(), 3, 2, 1000, true),
             0x1.0c7f1844bd87cp-18, 407);
}

// ---- Exact pins: the paper's baselines ----
//
// Bruck on a non-power-of-two world, the Kandalla multi-leader design and
// the strict-barrier hierarchical ablation with both phase-2 exchanges.
// These bodies run as plain coroutines under one phase span, so a change in
// how they are dispatched shows up here first.

using core::LevelTransport;

coll::AllgatherFn fn_mha_inter_barrier(LevelTransport phase2) {
  return [phase2](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                  std::size_t m, bool ip) {
    return core::allgather_hierarchy(
        c, r, s, rv, m, ip,
        core::HierarchySpec::mha(LevelTransport::kAuto, phase2),
        /*overlap=*/false);
  };
}

TEST(BaselinePin, BruckNonPowerOfTwo) {
  expect_pin(run_pinned(fn_bruck(), 3, 2, 4096, false),
             0x1.8bc7af23b00aap-17, 195);
  expect_pin(run_pinned(fn_bruck(), 5, 3, 1000, true),
             0x1.6ae99be321853p-17, 571);
}

TEST(BaselinePin, MultiLeader) {
  expect_pin(run_pinned(fn_multi_leader(1), 2, 4, 65536, false),
             0x1.3d7903c5ec9d6p-13, 256);
  expect_pin(run_pinned(fn_multi_leader(2), 2, 4, 65536, false),
             0x1.076930f8d8688p-13, 482);
  expect_pin(run_pinned(fn_multi_leader(2), 3, 4, 4096, true),
             0x1.70a22d5aa4d6cp-16, 490);
}

TEST(BaselinePin, MhaInterBarrier) {
  expect_pin(run_pinned(fn_mha_inter_barrier(LevelTransport::kRd), 4, 4,
                        65536, false),
             0x1.ea5e2f170584bp-13, 844);
  expect_pin(run_pinned(fn_mha_inter_barrier(LevelTransport::kRing), 3, 4,
                        200000, false),
             0x1.f68132a180defp-12, 632);
  expect_pin(run_pinned(fn_mha_inter_barrier(LevelTransport::kRing), 3, 4,
                        4096, true),
             0x1.4e5efd60060b6p-16, 429);
}

}  // namespace
}  // namespace hmca::coll
