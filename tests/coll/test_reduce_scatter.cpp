// Reduce-scatter correctness: the planner-backed ring (any count, uneven
// tails) and recursive halving (power-of-two worlds, divisible counts),
// plus the core::mha_reduce_scatter dispatcher. The fault matrix lives in
// test_conformance.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <vector>

#include "coll/graph.hpp"
#include "coll/prim/program.hpp"
#include "coll/reduce_scatter.hpp"
#include "coll/registry.hpp"
#include "core/mha.hpp"
#include "core/selector.hpp"
#include "testing/conformance.hpp"

namespace hmca::coll {
namespace {

using hmca::testing::conf::RankBytes;
using hmca::testing::conf::Trial;

Trial healthy(int nodes, int ppn, int hcas = 1) {
  Trial t;
  t.nodes = nodes;
  t.ppn = ppn;
  t.hcas = hcas;
  return t;
}

ReduceScatterFn fn_ring() {
  return [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
            mpi::ReduceOp op) {
    return reduce_scatter_ring_any(c, my, d, n, t, op);
  };
}
ReduceScatterFn fn_rh() {
  return [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
            mpi::ReduceOp op) {
    return reduce_scatter_halving(c, my, d, n, t, op);
  };
}
ReduceScatterFn fn_mha() {
  return [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
            mpi::ReduceOp op) {
    return core::mha_reduce_scatter(c, my, d, n, t, op);
  };
}

// Every rank's owned element range `chunk_range(count, p, r)` must hold the
// exact reduction; other positions are unspecified.
void expect_owned_chunks_ok(const ReduceScatterFn& fn, const char* name,
                            const Trial& t, std::size_t count,
                            mpi::Dtype dtype, mpi::ReduceOp op) {
  const RankBytes got =
      hmca::testing::conf::run_reduce_scatter(fn, t, count, dtype, op);
  const int p = t.procs();
  for (int r = 0; r < p; ++r) {
    const auto [off, len] = chunk_range(count, p, r);
    for (std::size_t e = off; e < off + len; ++e) {
      ASSERT_EQ(hmca::testing::conf::elem_value(
                    got[static_cast<std::size_t>(r)], e, dtype),
                hmca::testing::conf::reduce_expected(p, e, op))
          << name << " nodes=" << t.nodes << " ppn=" << t.ppn
          << " count=" << count << " rank " << r << " elem " << e;
    }
  }
}

TEST(ReduceScatterRing, ExactAcrossShapesAndUnevenCounts) {
  for (const Trial& t : {healthy(1, 4), healthy(2, 4), healthy(4, 2, 2),
                         healthy(3, 3)}) {
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{7}, std::size_t{96},
          std::size_t{1000}}) {
      expect_owned_chunks_ok(fn_ring(), "ring", t, count,
                             mpi::Dtype::kInt64, mpi::ReduceOp::kSum);
    }
  }
}

TEST(ReduceScatterRing, AllOpsAndDtypes) {
  const Trial t = healthy(2, 3);
  for (const auto op : {mpi::ReduceOp::kSum, mpi::ReduceOp::kProd,
                        mpi::ReduceOp::kMax, mpi::ReduceOp::kMin}) {
    for (const auto dtype : {mpi::Dtype::kInt32, mpi::Dtype::kInt64,
                             mpi::Dtype::kFloat, mpi::Dtype::kDouble}) {
      expect_owned_chunks_ok(fn_ring(), "ring", t, 100, dtype, op);
    }
  }
}

TEST(ReduceScatterRing, CountBelowWorldLeavesZeroLengthTails) {
  // 3 elements over 6 ranks: the trailing ranks own nothing and must still
  // terminate.
  expect_owned_chunks_ok(fn_ring(), "ring", healthy(2, 3), 3,
                         mpi::Dtype::kInt32, mpi::ReduceOp::kSum);
}

TEST(ReduceScatterHalving, ExactOnPowerOfTwoWorlds) {
  for (const Trial& t : {healthy(1, 4), healthy(2, 4), healthy(4, 2, 2),
                         healthy(2, 1)}) {
    const int p = t.procs();
    for (const std::size_t per_rank : {std::size_t{1}, std::size_t{25}}) {
      expect_owned_chunks_ok(fn_rh(), "rh", t,
                             per_rank * static_cast<std::size_t>(p),
                             mpi::Dtype::kInt64, mpi::ReduceOp::kSum);
    }
  }
}

TEST(ReduceScatterHalving, FloatUsesOrderedCombines) {
  // Reduces combine in declared peer order, so float is exact for
  // int-valued inputs.
  expect_owned_chunks_ok(fn_rh(), "rh", healthy(2, 4), 64,
                         mpi::Dtype::kFloat, mpi::ReduceOp::kSum);
}

TEST(ReduceScatterHalving, RejectsNonPowerOfTwoWorld) {
  EXPECT_THROW(hmca::testing::conf::run_reduce_scatter(
                   fn_rh(), healthy(2, 3), 96, mpi::Dtype::kInt64,
                   mpi::ReduceOp::kSum),
               prim::PlanError);
}

TEST(ReduceScatterHalving, RejectsIndivisibleCount) {
  EXPECT_THROW(hmca::testing::conf::run_reduce_scatter(
                   fn_rh(), healthy(2, 2), 7, mpi::Dtype::kInt64,
                   mpi::ReduceOp::kSum),
               prim::PlanError);
}

TEST(ReduceScatter, MhaDispatcherCorrectOnBothSidesOfThreshold) {
  // Small divisible vectors route to recursive halving, large ones to the
  // ring; both must produce the exact owned chunks.
  const Trial t = healthy(2, 4, 2);
  expect_owned_chunks_ok(fn_mha(), "mha", t, 64, mpi::Dtype::kInt64,
                         mpi::ReduceOp::kSum);
  expect_owned_chunks_ok(fn_mha(), "mha", t, 16384, mpi::Dtype::kInt64,
                         mpi::ReduceOp::kSum);
}

TEST(ReduceScatter, MhaDispatcherHandlesIrregularShapes) {
  // Non-power-of-two world with an indivisible count: only the ring
  // applies and the dispatcher must pick it.
  expect_owned_chunks_ok(fn_mha(), "mha", healthy(3, 3), 1000,
                         mpi::Dtype::kDouble, mpi::ReduceOp::kSum);
}

TEST(ReduceScatter, RejectsMismatchedBufferSize) {
  Trial t = healthy(1, 2);
  sim::Engine eng;
  auto spec = hmca::testing::conf::spec_of(t);
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto buf = hw::Buffer::data(12);  // 3 int32 elements, count says 4
  eng.spawn([](mpi::Comm& c, hw::BufView d) -> sim::Task<void> {
    co_await reduce_scatter_ring_any(c, 0, d, 4, mpi::Dtype::kInt32,
                                     mpi::ReduceOp::kSum);
  }(comm, buf.view()));
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

// ---- Exact pins of the planner-lowered schedules ----
//
// Simulated latency (hex float) and dispatched engine events of the ring
// (uneven counts, non-power-of-two world), recursive halving and the
// composed rs_ag allreduce, each also on a shape whose transfers pass the
// 64 KiB single-chunk ceiling. A change to how the planner builds, numbers
// or lowers a program must not move any of these, `events` included.

struct Pinned {
  double latency;
  std::uint64_t events;
};

Pinned run_pinned(const ReduceScatterFn& fn, const Trial& t,
                  std::size_t count) {
  sim::Engine eng;
  mpi::World world(eng, hmca::testing::conf::spec_of(t));
  auto& comm = world.comm_world();
  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < comm.size(); ++r) {
    bufs.push_back(hw::Buffer::data(count * 8));
  }
  for (int r = 0; r < comm.size(); ++r) {
    eng.spawn(hmca::testing::conf::detail::rs_rank(
        comm, fn, r, bufs[static_cast<std::size_t>(r)].view(), count,
        mpi::Dtype::kInt64, mpi::ReduceOp::kSum));
  }
  eng.run();
  return {eng.now(), eng.events_dispatched()};
}

void expect_pin(const Pinned& got, double latency, std::uint64_t events) {
  EXPECT_EQ(got.latency, latency) << std::hexfloat << got.latency;
  EXPECT_EQ(got.events, events);
}

TEST(PlannerPin, ReduceScatterRing) {
  expect_pin(run_pinned(fn_ring(), healthy(3, 3), 1000),
             0x1.25e243a92be81p-17, 1482);
  expect_pin(run_pinned(fn_ring(), healthy(2, 2, 2), 40001),
             0x1.87bdecafa8264p-15, 621);
}

TEST(PlannerPin, ReduceScatterHalving) {
  expect_pin(run_pinned(fn_rh(), healthy(2, 2), 64),
             0x1.741b703ce9ae6p-19, 158);
  expect_pin(run_pinned(fn_rh(), healthy(2, 4, 2), 1u << 17),
             0x1.5417c9a76b8b1p-12, 4763);
}

TEST(PlannerPin, RsAgAllreduce) {
  core::register_core_algorithms();
  const ReduceScatterFn fn =
      coll::Registry::instance().allreduce.get("rs_ag").fn;
  expect_pin(run_pinned(fn, healthy(3, 3, 2), 1000),
             0x1.cf31c4c1be164p-17, 448);
  expect_pin(run_pinned(fn, healthy(2, 4, 2), 1u << 16),
             0x1.72044b16965d1p-12, 2713);
}

}  // namespace
}  // namespace hmca::coll
