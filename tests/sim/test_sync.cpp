// Unit tests for coroutine synchronization primitives.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace hmca::sim {
namespace {

TEST(Condition, NotifyAllWakesEveryWaiter) {
  Engine eng;
  Condition cv(eng);
  int woken = 0;
  auto waiter = [&](Engine&) -> Task<void> {
    co_await cv.wait();
    ++woken;
  };
  for (int i = 0; i < 4; ++i) eng.spawn(waiter(eng));
  auto notifier = [&](Engine& e) -> Task<void> {
    co_await e.sleep(1.0);
    cv.notify_all();
  };
  eng.spawn(notifier(eng));
  eng.run();
  EXPECT_EQ(woken, 4);
}

TEST(Condition, NotifyOneWakesInFifoOrder) {
  Engine eng;
  Condition cv(eng);
  std::vector<int> order;
  auto waiter = [&](Engine&, int id) -> Task<void> {
    co_await cv.wait();
    order.push_back(id);
  };
  eng.spawn(waiter(eng, 0));
  eng.spawn(waiter(eng, 1));
  auto notifier = [&](Engine& e) -> Task<void> {
    co_await e.sleep(1.0);
    cv.notify_one();
    co_await e.sleep(1.0);
    cv.notify_one();
  };
  eng.spawn(notifier(eng));
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(Condition, WaitUntilRechecksPredicate) {
  Engine eng;
  Condition cv(eng);
  int value = 0;
  double woke_at = -1;
  auto waiter = [&](Engine& e) -> Task<void> {
    co_await cv.wait_until([&] { return value >= 3; });
    woke_at = e.now();
  };
  auto producer = [&](Engine& e) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.sleep(1.0);
      ++value;
      cv.notify_all();
    }
  };
  eng.spawn(waiter(eng));
  eng.spawn(producer(eng));
  eng.run();
  EXPECT_DOUBLE_EQ(woke_at, 3.0);
}

TEST(Condition, DeadlockIsDetected) {
  Engine eng;
  Condition cv(eng);
  auto stuck = [&](Engine&) -> Task<void> { co_await cv.wait(); };
  eng.spawn(stuck(eng));
  EXPECT_THROW(eng.run(), SimError);
}

TEST(Semaphore, SerializesCriticalSection) {
  Engine eng;
  Semaphore sem(eng, 1);
  int inside = 0, max_inside = 0;
  auto worker = [&](Engine& e) -> Task<void> {
    co_await sem.acquire();
    ++inside;
    max_inside = std::max(max_inside, inside);
    co_await e.sleep(1.0);
    --inside;
    sem.release();
  };
  for (int i = 0; i < 3; ++i) eng.spawn(worker(eng));
  eng.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);  // fully serialized
}

TEST(Semaphore, AllowsConcurrencyUpToCount) {
  Engine eng;
  Semaphore sem(eng, 2);
  auto worker = [&](Engine& e) -> Task<void> {
    co_await sem.acquire();
    co_await e.sleep(1.0);
    sem.release();
  };
  for (int i = 0; i < 4; ++i) eng.spawn(worker(eng));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);  // two batches of two
}

TEST(Semaphore, ReleaseWakesTheWholeHerd) {
  // Pins the wake-up cost of release(): every waiter is rescheduled, one
  // takes the slot and the rest re-suspend. With N workers each holding a
  // 1-slot semaphore for 1 s, the run dispatches N spawns, N sleep wakes
  // and (N-1) + (N-2) + ... + 0 = N(N-1)/2 release wake-ups.
  constexpr std::uint64_t kWorkers = 16;
  Engine eng;
  Semaphore sem(eng, 1);
  auto worker = [&](Engine& e) -> Task<void> {
    co_await sem.acquire();
    co_await e.sleep(1.0);
    sem.release();
  };
  for (std::uint64_t i = 0; i < kWorkers; ++i) eng.spawn(worker(eng));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), static_cast<double>(kWorkers));
  EXPECT_EQ(eng.events_dispatched(),
            2 * kWorkers + kWorkers * (kWorkers - 1) / 2);
}

TEST(Semaphore, BulkAcquire) {
  Engine eng;
  Semaphore sem(eng, 0);
  bool got = false;
  auto taker = [&](Engine&) -> Task<void> {
    co_await sem.acquire(3);
    got = true;
  };
  auto giver = [&](Engine& e) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.sleep(1.0);
      sem.release();
    }
  };
  eng.spawn(taker(eng));
  eng.spawn(giver(eng));
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Barrier, AlignsAllParties) {
  Engine eng;
  Barrier bar(eng, 3);
  std::vector<double> release_times;
  auto party = [&](Engine& e, double arrive) -> Task<void> {
    co_await e.sleep(arrive);
    co_await bar.arrive_and_wait();
    release_times.push_back(e.now());
  };
  eng.spawn(party(eng, 1.0));
  eng.spawn(party(eng, 2.0));
  eng.spawn(party(eng, 5.0));
  eng.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (double t : release_times) EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(Barrier, IsCyclic) {
  Engine eng;
  Barrier bar(eng, 2);
  int rounds_done = 0;
  auto party = [&](Engine& e, double step) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      co_await e.sleep(step);
      co_await bar.arrive_and_wait();
    }
    ++rounds_done;
  };
  eng.spawn(party(eng, 1.0));
  eng.spawn(party(eng, 2.0));
  eng.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_DOUBLE_EQ(eng.now(), 6.0);  // slowest party dominates each round
}

TEST(WaitGroup, WaitsForAllChildren) {
  Engine eng;
  WaitGroup wg(eng);
  int done = 0;
  auto child = [&](Engine& e, double d) -> Task<void> {
    co_await e.sleep(d);
    ++done;
  };
  double finished_at = -1;
  auto parent = [&](Engine& e) -> Task<void> {
    wg.spawn(child(e, 1.0));
    wg.spawn(child(e, 3.0));
    wg.spawn(child(e, 2.0));
    co_await wg.wait();
    finished_at = e.now();
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(finished_at, 3.0);
}

TEST(WaitGroup, ChildrenRunConcurrently) {
  Engine eng;
  WaitGroup wg(eng);
  auto child = [](Engine& e) -> Task<void> { co_await e.sleep(5.0); };
  auto parent = [&](Engine& e) -> Task<void> {
    for (int i = 0; i < 10; ++i) wg.spawn(child(e));
    co_await wg.wait();
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);  // concurrent, not 50.0
}

}  // namespace
}  // namespace hmca::sim
