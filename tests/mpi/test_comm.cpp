// Communicators, requests, sub-communicator isolation, barriers.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace hmca::mpi {
namespace {

hw::Buffer filled(std::size_t n, char c) {
  auto b = hw::Buffer::data(n);
  std::memset(b.bytes(), c, n);
  return b;
}

TEST(Comm, WorldCoversAllRanks) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(4, 8));
  auto& comm = w.comm_world();
  EXPECT_EQ(comm.size(), 32);
  EXPECT_EQ(comm.to_global(13), 13);
  EXPECT_EQ(comm.from_global(13), 13);
  EXPECT_EQ(comm.node_of(13), 1);
  EXPECT_EQ(comm.node_local_rank(13), 5);
}

TEST(Comm, SubCommRemapsRanks) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(4, 4));
  auto& leaders = w.leader_comm();
  EXPECT_EQ(leaders.size(), 4);
  EXPECT_EQ(leaders.to_global(2), 8);
  EXPECT_EQ(leaders.from_global(8), 2);
  EXPECT_EQ(leaders.from_global(9), -1);
}

TEST(Comm, NodeCommIsCached) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 4));
  auto& a = w.node_comm(1);
  auto& b = w.node_comm(1);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 4);
  EXPECT_EQ(a.to_global(0), 4);
}

TEST(Comm, InvalidSubCommRejected) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 2));
  EXPECT_THROW(w.create_comm({}), std::invalid_argument);
  EXPECT_THROW(w.create_comm({0, 0}), std::invalid_argument);
  EXPECT_THROW(w.create_comm({0, 99}), std::invalid_argument);
}

TEST(Comm, SendRecvThroughSubComm) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 2));
  auto& leaders = w.leader_comm();  // global ranks 0 and 2
  auto src = filled(64, 'L');
  auto dst = hw::Buffer::data(64);
  auto sender = [&]() -> sim::Task<void> {
    co_await leaders.send(0, 1, 4, src.view());
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await leaders.recv(1, 0, 4, dst.view());
  };
  eng.spawn(sender());
  eng.spawn(receiver());
  eng.run();
  EXPECT_EQ(dst.as<char>()[0], 'L');
}

TEST(Comm, ContextsIsolateIdenticalTags) {
  // Same (src, dst, tag) on two comms must not cross-match. World sends
  // 'W' with tag 5; leader comm sends 'L' with tag 5, posted first.
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 2));
  auto& world = w.comm_world();
  auto& leaders = w.leader_comm();
  auto ws = filled(16, 'W');
  auto ls = filled(16, 'L');
  auto wd = hw::Buffer::data(16);
  auto ld = hw::Buffer::data(16);
  auto sender = [&]() -> sim::Task<void> {
    co_await world.send(0, 2, 5, ws.view());   // global 0 -> 2
    co_await leaders.send(0, 1, 5, ls.view()); // also global 0 -> 2
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await leaders.recv(1, 0, 5, ld.view());
    co_await world.recv(2, 0, 5, wd.view());
  };
  eng.spawn(sender());
  eng.spawn(receiver());
  eng.run();
  EXPECT_EQ(ld.as<char>()[0], 'L');
  EXPECT_EQ(wd.as<char>()[0], 'W');
}

TEST(Comm, IsendIrecvWaitAll) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 1));
  auto& comm = w.comm_world();
  const int k = 4;
  std::vector<hw::Buffer> srcs, dsts;
  for (int i = 0; i < k; ++i) {
    srcs.push_back(filled(256, static_cast<char>('0' + i)));
    dsts.push_back(hw::Buffer::data(256));
  }
  auto sender = [&]() -> sim::Task<void> {
    std::vector<Request> reqs;
    for (int i = 0; i < k; ++i) {
      reqs.push_back(comm.isend(0, 1, i, srcs[static_cast<size_t>(i)].view()));
    }
    co_await comm.wait_all(std::move(reqs));
  };
  auto receiver = [&]() -> sim::Task<void> {
    std::vector<Request> reqs;
    for (int i = 0; i < k; ++i) {
      reqs.push_back(comm.irecv(1, 0, i, dsts[static_cast<size_t>(i)].view()));
    }
    co_await comm.wait_all(std::move(reqs));
  };
  eng.spawn(sender());
  eng.spawn(receiver());
  eng.run();
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(dsts[static_cast<size_t>(i)].as<char>()[0], '0' + i);
  }
}

TEST(Comm, SendrecvExchangesConcurrently) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 1));
  auto& comm = w.comm_world();
  const std::size_t n = 1 << 20;
  auto a_out = filled(n, 'a');
  auto b_out = filled(n, 'b');
  auto a_in = hw::Buffer::data(n);
  auto b_in = hw::Buffer::data(n);
  auto rank0 = [&]() -> sim::Task<void> {
    co_await comm.sendrecv(0, 1, 0, a_out.view(), 1, 0, a_in.view());
  };
  auto rank1 = [&]() -> sim::Task<void> {
    co_await comm.sendrecv(1, 0, 0, b_out.view(), 0, 0, b_in.view());
  };
  eng.spawn(rank0());
  eng.spawn(rank1());
  eng.run();
  EXPECT_EQ(a_in.as<char>()[0], 'b');
  EXPECT_EQ(b_in.as<char>()[0], 'a');
  // Full duplex: the exchange should cost about one direction's time, not
  // two (rails are full duplex).
  const double one_way = static_cast<double>(n) / w.cluster().spec().hca_bw;
  EXPECT_LT(eng.now(), 1.5 * one_way);
}

TEST(Comm, BarrierAlignsRanks) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 2));
  auto& comm = w.comm_world();
  std::vector<double> t(4, -1);
  auto rank = [&](int r) -> sim::Task<void> {
    co_await eng.sleep(0.5 * r);
    co_await comm.barrier(r);
    t[static_cast<size_t>(r)] = eng.now();
  };
  for (int r = 0; r < 4; ++r) eng.spawn(rank(r));
  eng.run();
  for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(t[static_cast<size_t>(r)], 1.5);
}

TEST(Comm, OpSeqIsPerRankMonotonic) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 2));
  auto& comm = w.comm_world();
  EXPECT_EQ(comm.next_op_seq(0), 0u);
  EXPECT_EQ(comm.next_op_seq(0), 1u);
  EXPECT_EQ(comm.next_op_seq(1), 0u);
}

TEST(Comm, TagOutOfRangeThrows) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 1));
  auto& comm = w.comm_world();
  auto b = filled(8, 'x');
  auto t = [&]() -> sim::Task<void> {
    co_await comm.send(0, 1, kMaxUserTag + 1, b.view());
  };
  eng.spawn(t());
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

TEST(Comm, WaitOnInvalidRequestThrows) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 1));
  auto& comm = w.comm_world();
  auto t = [&]() -> sim::Task<void> { co_await comm.wait(Request{}); };
  eng.spawn(t());
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

TEST(Comm, TestOnInvalidRequestThrows) {
  EXPECT_THROW(Request{}.test(), std::invalid_argument);
}

TEST(Comm, RequestTestProbesCompletion) {
  sim::Engine eng;
  World w(eng, hw::ClusterSpec::thor(2, 1));
  auto& comm = w.comm_world();
  auto src = filled(64, 'T');
  auto dst = hw::Buffer::data(64);
  Request probe;
  auto t = [&]() -> sim::Task<void> {
    Request s = comm.isend(0, 1, 0, src.view());
    probe = comm.irecv(1, 0, 0, dst.view());
    EXPECT_FALSE(probe.test());  // posted this instant, nothing ran yet
    co_await comm.wait(std::move(s));
  };
  eng.spawn(t());
  eng.run();
  EXPECT_TRUE(probe.valid());
  EXPECT_TRUE(probe.test());
  EXPECT_EQ(dst.as<char>()[0], 'T');
}

}  // namespace
}  // namespace hmca::mpi
