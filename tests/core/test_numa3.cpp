// The Sec. 7 future-work extension: NUMA hardware model (sockets + UPI)
// and the 3-level NUMA-aware Allgather.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/hierarchy.hpp"
#include "osu/harness.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::core {
namespace {

coll::AllgatherFn fn_numa3() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) {
    return allgather_hierarchy(c, r, s, rv, m, ip,
                               HierarchySpec::derive(c.cluster().spec(), 0));
  };
}

// check_allgather builds thor(nodes, ppn); for NUMA we need our own runner.
double check_numa(int nodes, int ppn, std::size_t msg, bool in_place = false) {
  auto spec = hw::ClusterSpec::thor_numa(nodes, ppn);
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
        comm, fn_numa3(), r, sends[static_cast<std::size_t>(r)].view(),
        recvs[static_cast<std::size_t>(r)].view(), msg, in_place));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < msg; ++i) {
        const auto got =
            recvs[static_cast<std::size_t>(r)]
                .bytes()[static_cast<std::size_t>(src) * msg + i];
        EXPECT_EQ(got, hmca::testing::block_byte(src, i))
            << "rank " << r << " block " << src << " byte " << i;
        if (got != hmca::testing::block_byte(src, i)) return eng.now();
      }
    }
  }
  return eng.now();
}

TEST(NumaSpec, ThorNumaSplitsResources) {
  const auto s = hw::ClusterSpec::thor_numa(2, 8);
  EXPECT_EQ(s.sockets_per_node, 2);
  EXPECT_DOUBLE_EQ(s.mem_bw, hw::ClusterSpec::thor(2, 8).mem_bw / 2);
  EXPECT_NO_THROW(s.validate());
}

TEST(NumaSpec, UnevenPpnAcceptedEmptySocketsRejected) {
  // The block distribution handles ppn % sockets != 0 (L=7, S=2 -> {4, 3}),
  // so uneven shapes validate; a socket with no rank at all does not.
  auto s = hw::ClusterSpec::thor_numa(2, 8);
  s.ppn = 7;
  EXPECT_NO_THROW(s.validate());
  s = hw::ClusterSpec::thor_numa(2, 8);
  s.ppn = 1;  // sockets_per_node (2) > ppn: socket 1 hosts no rank
  EXPECT_THROW(s.validate(), hw::SpecError);
  s = hw::ClusterSpec::thor_numa(2, 8);
  s.upi_bw = 0;
  EXPECT_THROW(s.validate(), hw::SpecError);
}

TEST(NumaCluster, SocketMapping) {
  sim::Engine eng;
  hw::Cluster cl(eng, hw::ClusterSpec::thor_numa(2, 8));
  EXPECT_EQ(cl.sockets(), 2);
  EXPECT_EQ(cl.socket_of_local(0), 0);
  EXPECT_EQ(cl.socket_of_local(3), 0);
  EXPECT_EQ(cl.socket_of_local(4), 1);
  EXPECT_EQ(cl.socket_of_local(7), 1);
  EXPECT_EQ(cl.socket_of(12), 1);  // node 1, local 4
  EXPECT_EQ(cl.hca_socket(0), 0);
  EXPECT_EQ(cl.hca_socket(1), 1);
  EXPECT_NE(cl.mem(0, 0), cl.mem(0, 1));
  EXPECT_NE(cl.copy_engine(0, 0), cl.copy_engine(0, 1));
  EXPECT_NE(cl.upi(0), cl.upi(1));
}

TEST(NumaCluster, FlatNodesUnchanged) {
  sim::Engine eng;
  hw::Cluster cl(eng, hw::ClusterSpec::thor(2, 8));
  EXPECT_EQ(cl.sockets(), 1);
  EXPECT_EQ(cl.socket_of(13), 0);
  // Same resource census as before the NUMA extension.
  EXPECT_EQ(cl.net().resource_count(),
            2u * (1 + 1 + 2 * 3));  // mem + engine + hcas*(tx,rx,pcie)
}

TEST(NumaCluster, CrossSocketCopyPaysUpi) {
  sim::Engine eng;
  auto spec = hw::ClusterSpec::thor_numa(1, 8);
  hw::Cluster cl(eng, spec);
  // Same-socket copy: ranks 0 and 1 (socket 0).
  auto same = [&]() -> sim::Task<void> {
    co_await cl.cpu_copy_between(0, 1, 1e9);
  };
  eng.spawn(same());
  eng.run();
  const double t_same = eng.now();

  sim::Engine eng2;
  hw::Cluster cl2(eng2, spec);
  // Cross-socket copy: rank 0 (socket 0) reads rank 4's memory (socket 1).
  auto cross = [&]() -> sim::Task<void> {
    co_await cl2.cpu_copy_between(0, 4, 1e9);
  };
  eng2.spawn(cross());
  eng2.run();
  // A single copy is core-capped either way; UPI (18 GB/s) is above the
  // core rate so the solo times match.
  EXPECT_NEAR(eng2.now(), t_same, 1e-12);

  // But many concurrent cross-socket copies are UPI-bound:
  sim::Engine eng3;
  hw::Cluster cl3(eng3, spec);
  auto cross_many = [&](int r) -> sim::Task<void> {
    co_await cl3.cpu_copy_between(r, 4 + (r % 4), 1e9);
  };
  for (int r = 0; r < 4; ++r) eng3.spawn(cross_many(r));
  eng3.run();
  // 4 copies want 44 GB/s; the binding resource is the tighter of the UPI
  // link and the reading socket's copy engine.
  const double bound = std::min(spec.upi_bw, spec.copy_engine_bw);
  EXPECT_NEAR(eng3.now(), 4e9 / bound, 1e-6);

  // With a constrained UPI (older QPI parts), the link itself binds.
  auto tight = spec;
  tight.upi_bw = 8e9;
  sim::Engine eng4;
  hw::Cluster cl4(eng4, tight);
  auto cross_tight = [&](int r) -> sim::Task<void> {
    co_await cl4.cpu_copy_between(r, 4 + (r % 4), 1e9);
  };
  for (int r = 0; r < 4; ++r) eng4.spawn(cross_tight(r));
  eng4.run();
  EXPECT_NEAR(eng4.now(), 4e9 / tight.upi_bw, 1e-6);
}

// ---- Correctness sweep ----

using Topo = std::tuple<int, int, std::size_t>;
class Numa3Sweep : public ::testing::TestWithParam<Topo> {};

TEST_P(Numa3Sweep, GathersCorrectly) {
  auto [nodes, ppn, msg] = GetParam();
  check_numa(nodes, ppn, msg);
}

INSTANTIATE_TEST_SUITE_P(Topologies, Numa3Sweep,
                         ::testing::Values(Topo{1, 4, 512}, Topo{1, 8, 4096},
                                           Topo{2, 4, 1024},
                                           Topo{2, 8, 65536},
                                           Topo{3, 6, 100},   // non-p2, odd
                                           Topo{4, 2, 2048}));

TEST(Numa3, InPlace) { check_numa(2, 4, 2048, true); }

TEST(Numa3, FallsBackOnFlatNodes) {
  // sockets == 1: numa3 == MHA-inter; verified by the generic checker.
  hmca::testing::check_allgather(fn_numa3(), 2, 4, 4096);
}

// ---- The point of the extension: less UPI traffic ----

TEST(Numa3Perf, BeatsSocketObliviousDesignWhenUpiBinds) {
  // The 3-level design pays off when the UPI link is the scarce resource:
  // socket-oblivious direct spread reads ~half its blocks cross-socket
  // (l^2/2 block crossings per node), while the 3-level design crosses
  // each remote-socket byte roughly once.
  // Single node isolates the aggregation phase where the designs differ.
  auto spec = hw::ClusterSpec::thor_numa(1, 32);
  spec.upi_bw = 8e9;  // UPI-constrained part
  spec.carry_data = false;
  const std::size_t msg = 1u << 20;
  const double t_flat = osu::measure_allgather(
      spec,
      [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
         bool ip) {
        return allgather_hierarchy(c, r, s, rv, m, ip, HierarchySpec::mha());
      },
      msg);
  const double t_numa = osu::measure_allgather(spec, fn_numa3(), msg);
  // With HCA offload active, the adapters already bypass the UPI link for
  // part of the traffic, so the 3-level gain on top is moderate.
  EXPECT_LT(t_numa, 0.95 * t_flat);
  // Pinned: the retired dedicated socket engine's latency on this shape.
  EXPECT_EQ(t_numa, 0x1.4078f01927d8p-5);

  // With the offload disabled (pure CPU copies) the UPI saving is pure:
  // socket-oblivious direct spread crosses UPI for ~half of all block
  // reads, the 3-level design roughly once per remote byte.
  auto flat_cma = [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                     std::size_t m, bool ip) {
    return allgather_hierarchy(c, r, s, rv, m, ip,
                               HierarchySpec::mha(LevelTransport::kCma));
  };
  auto numa_cma = [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                     std::size_t m, bool ip) {
    HierarchySpec hs = HierarchySpec::derive(c.cluster().spec(), 3);
    hs.levels.front().transport = LevelTransport::kCma;
    return allgather_hierarchy(c, r, s, rv, m, ip, std::move(hs));
  };
  const double t_flat_cma = osu::measure_allgather(spec, flat_cma, msg);
  const double t_numa_cma = osu::measure_allgather(spec, numa_cma, msg);
  EXPECT_LT(t_numa_cma, 0.8 * t_flat_cma);
  EXPECT_EQ(t_numa_cma, 0x1.3e83d2775c3ecp-5);
}

}  // namespace
}  // namespace hmca::core
