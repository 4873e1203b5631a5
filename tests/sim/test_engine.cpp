// Unit tests for the discrete-event engine and coroutine task plumbing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace hmca::sim {
namespace {

Task<void> note_at(Engine& eng, std::vector<std::pair<double, int>>& log,
                   Duration delay, int id) {
  co_await eng.sleep(delay);
  log.emplace_back(eng.now(), id);
}

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(note_at(eng, log, 1.5, 1));
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 1.5);
  EXPECT_DOUBLE_EQ(eng.now(), 1.5);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(note_at(eng, log, 3.0, 3));
  eng.spawn(note_at(eng, log, 1.0, 1));
  eng.spawn(note_at(eng, log, 2.0, 2));
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].second, 1);
  EXPECT_EQ(log[1].second, 2);
  EXPECT_EQ(log[2].second, 3);
}

TEST(Engine, EqualTimestampsFireInSpawnOrder) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  for (int i = 0; i < 8; ++i) eng.spawn(note_at(eng, log, 1.0, i));
  eng.run();
  ASSERT_EQ(log.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(log[static_cast<size_t>(i)].second, i);
}

TEST(Engine, NegativeSleepThrows) {
  Engine eng;
  auto bad = [](Engine& e) -> Task<void> { co_await e.sleep(-1.0); };
  eng.spawn(bad(eng));
  EXPECT_THROW(eng.run(), SimError);
}

TEST(Engine, ZeroSleepYields) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  auto yielding = [](Engine& e, std::vector<std::pair<double, int>>& l)
      -> Task<void> {
    co_await e.yield();
    l.emplace_back(e.now(), 42);
  };
  eng.spawn(yielding(eng, log));
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 0.0);
}

Task<int> add_later(Engine& eng, int a, int b) {
  co_await eng.sleep(0.25);
  co_return a + b;
}

Task<void> chain(Engine& eng, int& out) {
  const int x = co_await add_later(eng, 1, 2);
  const int y = co_await add_later(eng, x, 10);
  out = y;
}

TEST(Engine, TaskValuesChainAcrossAwaits) {
  Engine eng;
  int out = 0;
  eng.spawn(chain(eng, out));
  eng.run();
  EXPECT_EQ(out, 13);
  EXPECT_DOUBLE_EQ(eng.now(), 0.5);
}

TEST(Engine, ExceptionInRootTaskPropagatesFromRun) {
  Engine eng;
  auto boom = [](Engine& e) -> Task<void> {
    co_await e.sleep(0.1);
    throw std::runtime_error("boom");
  };
  eng.spawn(boom(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ExceptionInChildTaskReachesParent) {
  Engine eng;
  auto child = [](Engine& e) -> Task<void> {
    co_await e.sleep(0.1);
    throw std::logic_error("child failed");
  };
  std::string caught;
  auto parent = [&caught, &child](Engine& e) -> Task<void> {
    try {
      co_await child(e);
    } catch (const std::logic_error& ex) {
      caught = ex.what();
    }
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_EQ(caught, "child failed");
}

TEST(Engine, CallbacksInterleaveWithCoroutines) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_callback([&] { order.push_back(2); }, 2.0);
  std::vector<std::pair<double, int>> log;
  eng.spawn(note_at(eng, log, 1.0, 1));
  eng.schedule_callback([&] { order.push_back(3); }, 3.0);
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 3);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, CountsDispatchedEvents) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(note_at(eng, log, 1.0, 1));
  eng.run();
  EXPECT_GE(eng.events_dispatched(), 2u);  // spawn start + sleep wake
}

TEST(Engine, AliveTasksTracksCompletion) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(note_at(eng, log, 1.0, 1));
  EXPECT_EQ(eng.alive_tasks(), 1);  // registered at spawn
  eng.run();
  EXPECT_EQ(eng.alive_tasks(), 0);
}

TEST(Engine, WatchdogTripsOnRunawaySimulations) {
  Engine eng;
  auto forever = [](Engine& e) -> Task<void> {
    for (;;) co_await e.sleep(1.0);
  };
  eng.spawn(forever(eng));
  EXPECT_THROW(eng.run(100), SimError);
  // The engine is still usable for inspection after the trip.
  EXPECT_GE(eng.events_dispatched(), 100u);
}

TEST(Engine, WatchdogAllowsNormalCompletion) {
  Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(note_at(eng, log, 1.0, 1));
  EXPECT_NO_THROW(eng.run(1000));
  EXPECT_EQ(log.size(), 1u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<double, int>> log;
    for (int i = 0; i < 16; ++i) {
      eng.spawn(note_at(eng, log, 0.1 * ((i * 7) % 5 + 1), i));
    }
    eng.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, EqualTimestampCallbacksFireInScheduleOrder) {
  // The FIFO tie-break contract documented on Engine::schedule: events at
  // one timestamp fire in exactly the order they were scheduled, however
  // many there are.
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    eng.schedule_callback([&order, i] { order.push_back(i); }, 1.0);
  }
  eng.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EqualTimestampOrderSurvivesInterleavedTimes) {
  // Tagged callbacks at mixed timestamps: within each timestamp, schedule
  // order; across timestamps, time order — regardless of schedule order.
  Engine eng;
  std::vector<std::pair<double, int>> order;
  const double times[] = {2.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0};
  for (int i = 0; i < 7; ++i) {
    eng.schedule_callback([&order, t = times[i], i] {
      order.emplace_back(t, i);
    }, times[i]);
  }
  eng.run();
  const std::vector<std::pair<double, int>> want = {
      {1.0, 1}, {1.0, 3}, {1.0, 5}, {2.0, 0}, {2.0, 2}, {2.0, 6}, {3.0, 4}};
  EXPECT_EQ(order, want);
}

TEST(Engine, CancelPreventsCallbackAndReportsStaleness) {
  Engine eng;
  int fired = 0;
  const EventId id = eng.schedule_callback([&fired] { ++fired; }, 1.0);
  eng.schedule_callback([] {}, 2.0);  // keep the queue non-empty
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id)) << "second cancel must report stale";
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(eng.cancel(id)) << "cancel after run must report stale";
}

TEST(Engine, CancelOfEventScheduledAtNow) {
  // Events scheduled at the current time while the engine runs (the
  // schedule_now / wake-up pattern) cancel exactly like future events.
  Engine eng;
  std::vector<int> order;
  EventId victim = kInvalidEvent;
  EventId fired_id = kInvalidEvent;
  eng.schedule_callback([&] {
    victim = eng.schedule_callback([&] { order.push_back(1); }, eng.now());
    fired_id = eng.schedule_callback([&] { order.push_back(2); }, eng.now());
    EXPECT_TRUE(eng.cancel(victim));
    EXPECT_FALSE(eng.cancel(victim)) << "second cancel must report stale";
  }, 1.0);
  eng.run();
  EXPECT_EQ(order, std::vector<int>{2});
  EXPECT_EQ(eng.events_dispatched(), 2u);
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
  EXPECT_FALSE(eng.cancel(fired_id)) << "cancel after firing must be stale";
}

TEST(Engine, CancelOfFiredEventIsRejected) {
  Engine eng;
  int fired = 0;
  const EventId id = eng.schedule_callback([&fired] { ++fired; }, 1.0);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(eng.cancel(id));
}

}  // namespace
}  // namespace hmca::sim
