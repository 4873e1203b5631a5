// Integration tests: realistic multi-collective workflows on one world —
// mixed operations back to back, concurrent collectives on disjoint
// sub-communicators, repeated-operation determinism, and failure
// propagation.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/barrier.hpp"
#include "coll/bcast.hpp"
#include "core/hierarchy.hpp"
#include "core/mha.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace hmca {
namespace {

// One rank's program for a small "iterative solver" pattern: broadcast the
// parameters, allgather the halo, allreduce the residual — twice.
sim::Task<void> solver_rank(mpi::Comm& comm, int r, hw::Buffer* params,
                            hw::Buffer* halo_send, hw::Buffer* halo_recv,
                            hw::Buffer* residual, std::size_t msg) {
  const std::size_t count = residual->size() / 8;
  for (int iter = 0; iter < 2; ++iter) {
    co_await core::bcast_hierarchy(comm, r, 0, params->view(),
                                   core::HierarchySpec::mha());
    co_await core::mha_allgather(comm, r, halo_send->view(),
                                 halo_recv->view(), msg);
    co_await core::mha_allreduce(comm, r, residual->view(), count,
                                 mpi::Dtype::kInt64, mpi::ReduceOp::kSum);
    co_await coll::barrier_dissemination(comm, r);
  }
}

TEST(Workflows, MixedCollectivesBackToBack) {
  auto spec = hw::ClusterSpec::thor(2, 3);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  const std::size_t msg = 512;

  std::vector<hw::Buffer> params, hs, hr, res;
  for (int r = 0; r < p; ++r) {
    auto pr = hw::Buffer::data(256);
    if (r == 0) std::memset(pr.bytes(), 'P', 256);
    params.push_back(std::move(pr));
    auto s = hw::Buffer::data(msg);
    std::memset(s.bytes(), static_cast<char>('a' + r), msg);
    hs.push_back(std::move(s));
    hr.push_back(hw::Buffer::data(msg * static_cast<std::size_t>(p)));
    auto rs = hw::Buffer::data(64);
    for (int e = 0; e < 8; ++e) rs.as<std::int64_t>()[e] = r + e;
    res.push_back(std::move(rs));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(solver_rank(comm, r, &params[static_cast<std::size_t>(r)],
                          &hs[static_cast<std::size_t>(r)],
                          &hr[static_cast<std::size_t>(r)],
                          &res[static_cast<std::size_t>(r)], msg));
  }
  eng.run();

  for (int r = 0; r < p; ++r) {
    // Broadcast parameters everywhere.
    EXPECT_EQ(params[static_cast<std::size_t>(r)].as<char>()[0], 'P');
    // Halo blocks in rank order.
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(hr[static_cast<std::size_t>(r)]
                    .as<char>()[static_cast<std::size_t>(src) * msg],
                'a' + src);
    }
    // Residual allreduced twice: after iter 1, value = sum_r(r+e); after
    // iter 2, value = p * that sum.
    for (int e = 0; e < 8; ++e) {
      std::int64_t once = 0;
      for (int q = 0; q < p; ++q) once += q + e;
      EXPECT_EQ(res[static_cast<std::size_t>(r)].as<std::int64_t>()[e],
                once * p)
          << "rank " << r << " elem " << e;
    }
  }
}

// Rank program for the disjoint-comms test. A free function: a coroutine
// must not outlive lambda captures, so parameters are passed explicitly.
sim::Task<void> group_rank(mpi::Comm& comm, int rr, char base,
                           hw::Buffer* recv, std::size_t msg) {
  auto send = hw::Buffer::data(msg);
  std::memset(send.bytes(), base + rr, msg);
  co_await coll::allgather_ring(comm, rr, send.view(), recv->view(), msg);
}

TEST(Workflows, ConcurrentCollectivesOnDisjointComms) {
  // Two node-local groups run independent Allgathers at the same time;
  // context ids keep their matching separate.
  auto spec = hw::ClusterSpec::thor(2, 4);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& g0 = world.node_comm(0);
  auto& g1 = world.node_comm(1);
  const std::size_t msg = 256;

  std::vector<hw::Buffer> r0, r1;
  for (int r = 0; r < 4; ++r) {
    r0.push_back(hw::Buffer::data(msg * 4));
    r1.push_back(hw::Buffer::data(msg * 4));
  }
  for (int r = 0; r < 4; ++r) {
    eng.spawn(group_rank(g0, r, 'A', &r0[static_cast<std::size_t>(r)], msg));
    eng.spawn(group_rank(g1, r, 'a', &r1[static_cast<std::size_t>(r)], msg));
  }
  eng.run();

  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(r0[static_cast<std::size_t>(r)]
                    .as<char>()[static_cast<std::size_t>(s) * msg],
                'A' + s);
      EXPECT_EQ(r1[static_cast<std::size_t>(r)]
                    .as<char>()[static_cast<std::size_t>(s) * msg],
                'a' + s);
    }
  }
}

TEST(Workflows, RepeatedOperationsAreDeterministic) {
  // Two identical Allgathers in one world take identical time.
  auto spec = hw::ClusterSpec::thor(2, 2);
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const std::size_t msg = 65536;
  const int p = comm.size();
  std::vector<double> d1(static_cast<std::size_t>(p)), d2(static_cast<std::size_t>(p));
  auto prog = [&](int r) -> sim::Task<void> {
    auto send = hw::Buffer::phantom(msg);
    auto recv = hw::Buffer::phantom(msg * static_cast<std::size_t>(p));
    co_await comm.barrier(r);
    double t0 = eng.now();
    co_await core::mha_allgather(comm, r, send.view(), recv.view(), msg);
    co_await comm.barrier(r);
    d1[static_cast<std::size_t>(r)] = eng.now() - t0;
    t0 = eng.now();
    co_await core::mha_allgather(comm, r, send.view(), recv.view(), msg);
    co_await comm.barrier(r);
    d2[static_cast<std::size_t>(r)] = eng.now() - t0;
  };
  for (int r = 0; r < p; ++r) eng.spawn(prog(r));
  eng.run();
  for (int r = 0; r < p; ++r) {
    EXPECT_NEAR(d1[static_cast<std::size_t>(r)], d2[static_cast<std::size_t>(r)],
                1e-12);
  }
}

TEST(Workflows, SizeMismatchSurfacesAsError) {
  auto spec = hw::ClusterSpec::thor(2, 1);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto a = hw::Buffer::data(64);
  auto b = hw::Buffer::data(32);
  auto s = [&]() -> sim::Task<void> { co_await comm.send(0, 1, 0, a.view()); };
  auto r = [&]() -> sim::Task<void> { co_await comm.recv(1, 0, 0, b.view()); };
  eng.spawn(s());
  eng.spawn(r());
  EXPECT_THROW(eng.run(), sim::SimError);
}

TEST(Workflows, MissingParticipantDeadlocksDetectably) {
  // 3 of 4 ranks enter the allgather: the run must end in a detected
  // deadlock, not a hang.
  auto spec = hw::ClusterSpec::thor(1, 4);
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const std::size_t msg = 1024;
  auto prog = [&](int r) -> sim::Task<void> {
    auto send = hw::Buffer::phantom(msg);
    auto recv = hw::Buffer::phantom(msg * 4);
    co_await coll::allgather_ring(comm, r, send.view(), recv.view(), msg);
  };
  for (int r = 0; r < 3; ++r) eng.spawn(prog(r));  // rank 3 missing
  EXPECT_THROW(eng.run(), sim::SimError);
}

}  // namespace
}  // namespace hmca
