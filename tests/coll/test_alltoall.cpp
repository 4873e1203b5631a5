// Alltoall / Alltoallv correctness: the planner-backed direct full-mesh,
// the legacy pairwise schedule, the hierarchical leader exchange and the
// core::mha_alltoall dispatcher, on healthy worlds (the fault matrix lives
// in test_conformance.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <vector>

#include "coll/alltoall.hpp"
#include "coll/registry.hpp"
#include "core/mha.hpp"
#include "core/selector.hpp"
#include "testing/conformance.hpp"

namespace hmca::coll {
namespace {

using hmca::testing::conf::RankBytes;
using hmca::testing::conf::Trial;

Trial healthy(int nodes, int ppn, int hcas = 1, int sockets = 1) {
  Trial t;
  t.nodes = nodes;
  t.ppn = ppn;
  t.hcas = hcas;
  t.sockets = sockets;
  return t;
}

AlltoallFn fn_direct() {
  return [](mpi::Comm& c, int my, hw::BufView s, hw::BufView r,
            std::size_t m) { return alltoall_direct(c, my, s, r, m); };
}
AlltoallFn fn_pairwise() {
  return [](mpi::Comm& c, int my, hw::BufView s, hw::BufView r,
            std::size_t m) { return alltoall_pairwise(c, my, s, r, m); };
}
AlltoallFn fn_mha() {
  return [](mpi::Comm& c, int my, hw::BufView s, hw::BufView r,
            std::size_t m) { return core::mha_alltoall(c, my, s, r, m); };
}

void expect_alltoall_ok(const AlltoallFn& fn, const char* name,
                        const Trial& t, std::size_t msg) {
  const RankBytes got = hmca::testing::conf::run_alltoall(fn, t, msg);
  const RankBytes want =
      hmca::testing::conf::alltoall_expected(t.procs(), msg);
  EXPECT_EQ(hmca::testing::conf::diff_results(got, want), "")
      << name << " nodes=" << t.nodes << " ppn=" << t.ppn << " msg=" << msg;
}

TEST(Alltoall, DirectMatchesExpectedAcrossShapes) {
  for (const Trial& t : {healthy(1, 4), healthy(2, 4), healthy(4, 2, 2),
                         healthy(3, 3, 2, 2), healthy(1, 1)}) {
    for (const std::size_t msg : {std::size_t{0}, std::size_t{1},
                                  std::size_t{777}, std::size_t{4096}}) {
      expect_alltoall_ok(fn_direct(), "direct", t, msg);
    }
  }
}

TEST(Alltoall, PairwiseMatchesExpected) {
  for (const Trial& t : {healthy(1, 4), healthy(2, 3), healthy(4, 2, 2)}) {
    expect_alltoall_ok(fn_pairwise(), "pairwise", t, 1000);
  }
}

TEST(Alltoall, HierLeaderMatchesExpectedOnMultiNodeWorlds) {
  core::register_core_algorithms();
  const auto& algo = Registry::instance().get_alltoall("hier_leader");
  for (const Trial& t : {healthy(2, 4), healthy(4, 2, 2), healthy(3, 3),
                         healthy(2, 1)}) {
    ASSERT_TRUE(!algo.applies ||
                algo.applies(hmca::testing::conf::shape_of(t), 512));
    for (const std::size_t msg :
         {std::size_t{0}, std::size_t{512}, std::size_t{4096}}) {
      expect_alltoall_ok(algo.fn, "hier_leader", t, msg);
    }
  }
}

TEST(Alltoall, HierLeaderDoesNotApplyToSingleNode) {
  core::register_core_algorithms();
  const auto& algo = Registry::instance().get_alltoall("hier_leader");
  ASSERT_TRUE(static_cast<bool>(algo.applies));
  EXPECT_FALSE(
      algo.applies(hmca::testing::conf::shape_of(healthy(1, 8)), 4096));
}

TEST(Alltoall, MhaDispatcherCorrectOnBothSidesOfThreshold) {
  // Small blocks route hierarchical, large ones direct; both must agree
  // with the expected exchange image.
  for (const std::size_t msg : {std::size_t{256}, std::size_t{65536}}) {
    expect_alltoall_ok(fn_mha(), "mha", healthy(2, 4, 2), msg);
  }
}

TEST(Alltoall, DirectRejectsUndersizedBuffers) {
  Trial t = healthy(1, 2);
  sim::Engine eng;
  auto spec = hmca::testing::conf::spec_of(t);
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto send = hw::Buffer::data(8);  // needs 2 * 16
  auto recv = hw::Buffer::data(32);
  eng.spawn([](mpi::Comm& c, hw::BufView s,
               hw::BufView r) -> sim::Task<void> {
    co_await alltoall_direct(c, 0, s, r, 16);
  }(comm, send.view(), recv.view()));
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

// ---- Alltoallv ----

std::vector<std::size_t> uneven_counts(int p) {
  // Deterministic irregular matrix: empty rows/columns and one large block.
  std::vector<std::size_t> counts(static_cast<std::size_t>(p * p));
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      const std::size_t menu[] = {0, 1, 17, 300, 2000};
      counts[static_cast<std::size_t>(i * p + j)] =
          menu[static_cast<std::size_t>(i * 131 + j * 7) % std::size(menu)];
    }
  }
  counts[0] = 20000;
  return counts;
}

TEST(Alltoallv, DirectHandlesUnevenCounts) {
  for (const Trial& t : {healthy(1, 4), healthy(2, 4), healthy(4, 2, 2)}) {
    const auto counts = uneven_counts(t.procs());
    const RankBytes got = hmca::testing::conf::run_alltoallv(
        [](mpi::Comm& c, int my, hw::BufView s, hw::BufView r,
           const AlltoallvLayout& l) {
          return alltoallv_direct(c, my, s, r, l);
        },
        t, counts);
    const RankBytes want =
        hmca::testing::conf::alltoallv_expected(t.procs(), counts);
    EXPECT_EQ(hmca::testing::conf::diff_results(got, want), "")
        << "alltoallv direct nodes=" << t.nodes << " ppn=" << t.ppn;
  }
}

TEST(Alltoallv, PairwiseMatchesDirect) {
  const Trial t = healthy(2, 3);
  const auto counts = uneven_counts(t.procs());
  const RankBytes got = hmca::testing::conf::run_alltoallv(
      [](mpi::Comm& c, int my, hw::BufView s, hw::BufView r,
         const AlltoallvLayout& l) {
        return alltoallv_pairwise(c, my, s, r, l);
      },
      t, counts);
  EXPECT_EQ(hmca::testing::conf::diff_results(
                got, hmca::testing::conf::alltoallv_expected(t.procs(),
                                                             counts)),
            "");
}

TEST(Alltoallv, LayoutPrefixSumsAreStandard) {
  // 2 ranks: 0 sends {10, 3}, 1 sends {0, 7}.
  const auto l = AlltoallvLayout::from_counts(2, {10, 3, 0, 7});
  EXPECT_EQ(l.send_offset(0, 0), 0u);
  EXPECT_EQ(l.send_offset(0, 1), 10u);
  EXPECT_EQ(l.send_total(0), 13u);
  EXPECT_EQ(l.recv_offset(0, 1), 0u);   // block from source 0 in rank 1
  EXPECT_EQ(l.recv_offset(1, 1), 3u);   // rank 1's own block follows
  EXPECT_EQ(l.recv_total(1), 10u);
  EXPECT_EQ(l.total(), 20u);
}

// ---- Exact pins of the pairwise baselines ----
//
// Simulated latency (hex float) and dispatched engine events of the
// pairwise alltoall(v) schedules, run in data mode on a healthy world.

struct Pinned {
  double latency;
  std::uint64_t events;
};

template <class Layout, class Fn>
Pinned run_pinned(const Fn& fn, const Trial& t, const Layout& layout,
                  std::size_t send_bytes, std::size_t recv_bytes) {
  auto spec = hmca::testing::conf::spec_of(t);
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < comm.size(); ++r) {
    sends.push_back(hw::Buffer::data(send_bytes));
    recvs.push_back(hw::Buffer::data(recv_bytes));
  }
  for (int r = 0; r < comm.size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    eng.spawn(fn(comm, r, sends[i].view(), recvs[i].view(), layout));
  }
  eng.run();
  return {eng.now(), eng.events_dispatched()};
}

void expect_pin(const Pinned& got, double latency, std::uint64_t events) {
  EXPECT_EQ(got.latency, latency) << std::hexfloat << got.latency;
  EXPECT_EQ(got.events, events);
}

TEST(BaselinePin, AlltoallPairwise) {
  const Trial t = healthy(2, 3);
  const std::size_t msg = 1000;
  const auto bytes = msg * static_cast<std::size_t>(t.procs());
  expect_pin(run_pinned(fn_pairwise(), t, msg, bytes, bytes),
             0x1.0fe375874dedp-17, 304);
  const Trial wide = healthy(4, 2, 2);
  const std::size_t big = 1u << 16;
  const auto wide_bytes = big * static_cast<std::size_t>(wide.procs());
  expect_pin(run_pinned(fn_pairwise(), wide, big, wide_bytes, wide_bytes),
             0x1.5f5de7f96e4e8p-14, 841);
}

TEST(BaselinePin, AlltoallvPairwise) {
  const Trial t = healthy(2, 3);
  const auto layout =
      AlltoallvLayout::from_counts(t.procs(), uneven_counts(t.procs()));
  std::size_t send_max = 0, recv_max = 0;
  for (int r = 0; r < t.procs(); ++r) {
    send_max = std::max(send_max, layout.send_total(r));
    recv_max = std::max(recv_max, layout.recv_total(r));
  }
  const AlltoallvFn fn = [](mpi::Comm& c, int my, hw::BufView s,
                            hw::BufView r, const AlltoallvLayout& l) {
    return alltoallv_pairwise(c, my, s.sub(0, l.send_total(my)),
                              r.sub(0, l.recv_total(my)), l);
  };
  expect_pin(run_pinned(fn, t, layout, send_max, recv_max),
             0x1.28ba52798d085p-17, 355);
}

}  // namespace
}  // namespace hmca::coll
