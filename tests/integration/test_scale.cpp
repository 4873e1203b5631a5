// Scale smoke tests for the simulator core.
//
// The calendar-queue scheduler, arena-allocated flow state and incremental
// fluid solver exist so thousand-rank worlds stay cheap. These tests pin
// that claim in tier-1: large worlds must *complete* under a generous
// event-count budget (an O(n^2) regression in the queue or the solver trips
// the engine watchdog long before the suite times out), and a fig12-shaped
// world must produce byte-identical Chrome traces across two runs — the
// end-to-end determinism contract of the FIFO tie-break.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "core/selector.hpp"
#include "hw/buffer.hpp"
#include "hw/spec.hpp"
#include "mpi/comm.hpp"
#include "obs/chrome_trace.hpp"
#include "osu/harness.hpp"
#include "profiles/profiles.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace hmca {
namespace {

sim::Task<void> ag_rank(mpi::Comm& comm, const coll::AllgatherFn& fn, int r,
                        hw::BufView send, hw::BufView recv, std::size_t msg) {
  co_await fn(comm, r, send, recv, msg, /*in_place=*/false);
}

/// One phantom-buffer allgather with an event budget: like the OSU
/// harness's counted run, but `eng.run(budget)` turns an event-count
/// explosion into a fast SimError instead of a suite timeout.
std::uint64_t run_budgeted(hw::ClusterSpec spec, const coll::AllgatherFn& fn,
                           std::size_t msg, std::uint64_t budget) {
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> sends, recvs;
  sends.reserve(static_cast<std::size_t>(p));
  recvs.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    sends.push_back(hw::Buffer::phantom(msg));
    recvs.push_back(hw::Buffer::phantom(msg * static_cast<std::size_t>(p)));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(ag_rank(comm, fn, r, sends[static_cast<std::size_t>(r)].view(),
                      recvs[static_cast<std::size_t>(r)].view(), msg));
  }
  eng.run(budget);
  EXPECT_EQ(eng.alive_tasks(), 0) << "ranks left suspended";
  EXPECT_GT(eng.now(), 0.0);
  return eng.events_dispatched();
}

TEST(Scale, ThousandRankTaskGraphAllgatherUnderBudget) {
  // 32 nodes x 32 ppn = 1024 ranks through the full MHA task-graph path
  // (streaming task graph, fluid network, calendar queue). The healthy run
  // dispatches ~1.05M events at this message size; 4M is ~4x headroom, and
  // anything super-linear in the queue or solver blows through it.
  core::register_core_algorithms();
  const auto spec = hw::ClusterSpec::thor(32, 32);
  const std::uint64_t events =
      run_budgeted(spec, profiles::mha().allgather, 4096, 4'000'000);
  EXPECT_GT(events, 500'000u) << "world suspiciously small — wrong shape?";
}

TEST(Scale, FaultedWideWorldCompletesUnderBudget) {
  // 256 nodes x 2 ppn with one HCA killed mid-collective: the degraded
  // re-route must still converge, at scale, within ~4x of the measured
  // healthy event count (~0.3M).
  core::register_core_algorithms();
  auto spec = hw::ClusterSpec::thor(256, 2);
  spec.fault_plan = "kill:node=3,hca=1,t=1e-5";
  const std::uint64_t events =
      run_budgeted(spec, profiles::mha().allgather, 4096, 1'200'000);
  EXPECT_GT(events, 100'000u) << "world suspiciously small — wrong shape?";
}

TEST(Scale, Fig12WorldTracesAreByteIdentical) {
  // Determinism end to end: two identical fig12-shaped runs (8 nodes x
  // 32 ppn, the paper's Fig. 12 world) must produce byte-identical Chrome
  // traces. Any tie-break instability in the calendar queue, iteration-
  // order leak in the fluid solver, or address-dependent ordering anywhere
  // in the stack shows up as a span diff here.
  core::register_core_algorithms();
  const auto spec = hw::ClusterSpec::thor(8, 32);
  const auto& fn = profiles::mha().allgather;
  auto traced_run = [&] {
    trace::Tracer tracer;
    const double s = osu::measure_allgather(spec, fn, 65536, &tracer);
    EXPECT_GT(s, 0.0);
    std::ostringstream os;
    obs::write_chrome_trace(os, tracer.spans());
    return std::move(os).str();
  };
  const std::string a = traced_run();
  const std::string b = traced_run();
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "traces diverged between identical runs";
}

}  // namespace
}  // namespace hmca
