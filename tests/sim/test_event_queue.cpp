// Differential test: the production calendar queue against the retained
// binary-heap reference scheduler.
//
// Both queues promise the same contract — events pop in strictly
// lexicographic (t, seq) order with FIFO tie-break at equal timestamps —
// and this suite drives randomized schedule/cancel/re-schedule sequences
// (including bursts of equal timestamps) through both at once, asserting
// identical pop order. The EventQueueLane cases and the churn driver pin
// the calendar queue's same-timestamp lane (pushes at the last popped time)
// against the same oracle. Seed-replayable via the conformance-harness env
// convention:
//   HMCA_SIMCORE_SEED=<seed> ctest -L simcore
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "osu/env.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace hmca::sim {
namespace {

constexpr const char* kSeedEnv = osu::Env::kSimcoreSeed;

/// Suite seed: HMCA_SIMCORE_SEED when set (hex seeds from failure logs
/// replay directly), a fixed default otherwise.
std::uint64_t suite_seed() {
  return osu::Env::simcore_seed().value_or(0x51EDC04Eull);
}

std::string replay_note(std::uint64_t seed) {
  return "replay with " + std::string(kSeedEnv) + "=" + std::to_string(seed);
}

/// Drives an identical operation sequence through both queues and asserts
/// the pops agree. Ids differ between the queues (different arenas), so
/// pushes are tracked as pairs.
class DifferentialDriver {
 public:
  explicit DifferentialDriver(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  void push(QueueTime t) {
    const EventId cal = cal_.push(t, {}, nullptr);
    const EventId ref = ref_.push(t, {}, nullptr);
    live_.push_back({cal, ref});
  }

  /// Cancel a random tracked id (which may already have been popped — the
  /// queues must then both reject it as stale).
  void cancel_random() {
    if (live_.empty()) return;
    const std::size_t i = rng_.next_below(live_.size());
    const bool a = cal_.cancel(live_[i].first);
    const bool b = ref_.cancel(live_[i].second);
    EXPECT_EQ(a, b) << "cancel verdict diverged; " << replay_note(seed_);
    live_[i] = live_.back();
    live_.pop_back();
  }

  void pop_and_compare() {
    ASSERT_EQ(cal_.empty(), ref_.empty()) << replay_note(seed_);
    if (cal_.empty()) return;
    const QueuedEvent a = cal_.pop();
    const QueuedEvent b = ref_.pop();
    ASSERT_EQ(a.t, b.t) << "pop time diverged at op " << pops_ << "; "
                        << replay_note(seed_);
    ASSERT_EQ(a.seq, b.seq) << "pop order diverged at t=" << a.t << "; "
                            << replay_note(seed_);
    ++pops_;
    last_popped_t_ = a.t;
  }

  void drain() {
    ASSERT_EQ(cal_.size(), ref_.size()) << replay_note(seed_);
    while (!cal_.empty()) pop_and_compare();
    EXPECT_TRUE(ref_.empty()) << replay_note(seed_);
  }

  Rng& rng() { return rng_; }
  QueueTime last_popped() const { return last_popped_t_; }
  std::size_t size() const { return cal_.size(); }
  std::size_t lane_size() const { return cal_.lane_size(); }

 private:
  CalendarQueue cal_;
  BinaryHeapQueue ref_;
  std::vector<std::pair<EventId, EventId>> live_;
  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t pops_ = 0;
  QueueTime last_popped_t_ = 0.0;
};

TEST(EventQueueDifferential, RandomizedScheduleCancelReschedule) {
  // Mixed workload mimicking the engine: mostly monotone pushes around a
  // moving "now", bursts of equal timestamps, occasional cancels, and
  // re-schedule churn (pop followed by pushes at the popped time).
  const std::uint64_t seed = suite_seed();
  for (int round = 0; round < 4; ++round) {
    DifferentialDriver d(seed + static_cast<std::uint64_t>(round));
    auto& rng = d.rng();
    double now = 0.0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 55) {
        // Schedule ahead of the current virtual time.
        d.push(now + static_cast<double>(rng.next_below(1000)) * 1e-6);
      } else if (kind < 70) {
        // Equal-timestamp burst: these must pop FIFO.
        const double t = now + static_cast<double>(rng.next_below(100)) * 1e-6;
        const std::uint64_t burst = 2 + rng.next_below(6);
        for (std::uint64_t i = 0; i < burst; ++i) d.push(t);
      } else if (kind < 80) {
        d.cancel_random();
      } else if (d.size() > 0) {
        d.pop_and_compare();
        now = d.last_popped();
        // Re-schedule at the popped timestamp (the engine's schedule_now).
        if (rng.next_below(2) == 0) d.push(now);
      }
      if (HasFatalFailure()) return;
    }
    d.drain();
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, SameTimestampChurnMatchesReference) {
  // The engine's dominant pattern: pop an event, then push follow-ups at
  // the popped time (schedule_now, wake-ups, spawns), with occasional
  // future events and cancels. Long runs keep the same-timestamp lane busy
  // across many timestamps, including refills while it is non-empty.
  const std::uint64_t seed = suite_seed() ^ 0x1A4Eull;
  DifferentialDriver d(seed);
  auto& rng = d.rng();
  for (int i = 0; i < 64; ++i) {
    d.push(static_cast<double>(rng.next_below(50)) * 1e-6);
  }
  std::size_t lane_peak = 0;
  for (int op = 0; op < 50000; ++op) {
    if (d.size() == 0) d.push(d.last_popped() + 1e-6);
    d.pop_and_compare();
    if (HasFatalFailure()) return;
    const double now = d.last_popped();
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 45) {
      d.push(now);
    } else if (kind < 65) {
      const std::uint64_t burst = 2 + rng.next_below(4);
      for (std::uint64_t i = 0; i < burst; ++i) d.push(now);
    } else if (kind < 85) {
      d.push(now + static_cast<double>(1 + rng.next_below(50)) * 1e-6);
    } else if (kind < 95) {
      d.push(now);
      d.cancel_random();
    }
    lane_peak = std::max(lane_peak, d.lane_size());
  }
  EXPECT_GT(lane_peak, 1u) << "churn never reached the same-timestamp lane";
  d.drain();
}

TEST(EventQueueDifferential, EqualTimestampBurstsPopInPushOrder) {
  CalendarQueue q;
  for (int i = 0; i < 500; ++i) q.push(1.25, {}, nullptr);
  std::uint64_t prev_seq = 0;
  for (int i = 0; i < 500; ++i) {
    const QueuedEvent ev = q.pop();
    EXPECT_DOUBLE_EQ(ev.t, 1.25);
    if (i > 0) {
      EXPECT_GT(ev.seq, prev_seq) << "FIFO tie-break violated";
    }
    prev_seq = ev.seq;
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDifferential, SparseScheduleExercisesDirectSearch) {
  // Huge gaps between timestamps force the pop scan onto its direct-search
  // fallback; order must still match the reference exactly.
  const std::uint64_t seed = suite_seed() ^ 0xA11Cull;
  DifferentialDriver d(seed);
  auto& rng = d.rng();
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 6) {
      // Timestamps spread over ~12 orders of magnitude.
      const double mag = static_cast<double>(rng.next_below(12));
      d.push(static_cast<double>(1 + rng.next_below(999)) *
             std::pow(10.0, mag - 6.0));
    } else if (kind < 7) {
      d.cancel_random();
    } else if (d.size() > 0) {
      d.pop_and_compare();
    }
    if (HasFatalFailure()) return;
  }
  d.drain();
}

TEST(EventQueueDifferential, GrowShrinkCyclesPreserveOrder) {
  // Fill far past the grow threshold, drain to trigger shrink, refill:
  // phase-structured population swings must not disturb pop order.
  const std::uint64_t seed = suite_seed() ^ 0x6405ull;
  DifferentialDriver d(seed);
  auto& rng = d.rng();
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 4000; ++i) {
      d.push(static_cast<double>(cycle) +
             static_cast<double>(rng.next_below(10000)) * 1e-7);
    }
    for (int i = 0; i < 3900; ++i) {
      d.pop_and_compare();
      if (HasFatalFailure()) return;
    }
  }
  d.drain();
}

TEST(EventQueue, CancelIsExactOnceAndStaleAfterPop) {
  CalendarQueue q;
  const EventId a = q.push(1.0, {}, nullptr);
  const EventId b = q.push(2.0, {}, nullptr);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a)) << "double cancel must be rejected";
  EXPECT_EQ(q.size(), 1u);
  const QueuedEvent ev = q.pop();
  EXPECT_DOUBLE_EQ(ev.t, 2.0);
  EXPECT_FALSE(q.cancel(b)) << "cancel of a popped event must be rejected";
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledSlotReuseRejectsStaleId) {
  CalendarQueue q;
  const EventId a = q.push(1.0, {}, nullptr);
  EXPECT_TRUE(q.cancel(a));
  // The arena slot is recycled; the old id's generation is now stale.
  const EventId c = q.push(3.0, {}, nullptr);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(c));
  EXPECT_TRUE(q.empty());
}

/// Pops both queues to empty and returns the calendar queue's (t, seq)
/// sequence, asserting the reference pops the same.
std::vector<std::pair<QueueTime, std::uint64_t>> drain_both(
    CalendarQueue& cal, BinaryHeapQueue& ref) {
  std::vector<std::pair<QueueTime, std::uint64_t>> order;
  EXPECT_EQ(cal.size(), ref.size());
  while (!cal.empty()) {
    const QueuedEvent a = cal.pop();
    const QueuedEvent b = ref.pop();
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.seq, b.seq);
    order.emplace_back(a.t, a.seq);
  }
  EXPECT_TRUE(ref.empty());
  return order;
}

TEST(EventQueueLane, CalendarEventsAtNowPopBeforeLaneEvents) {
  // Events queued for T before T became current live in the calendar and
  // carry smaller seqs than anything pushed at T afterwards.
  CalendarQueue cal;
  BinaryHeapQueue ref;
  for (int i = 0; i < 3; ++i) {
    cal.push(1.0, {}, nullptr);
    ref.push(1.0, {}, nullptr);
  }
  EXPECT_EQ(cal.pop().seq, ref.pop().seq);  // T = 1.0 is now current
  EXPECT_EQ(cal.lane_size(), 0u);
  for (int i = 0; i < 2; ++i) {
    cal.push(1.0, {}, nullptr);
    ref.push(1.0, {}, nullptr);
  }
  EXPECT_EQ(cal.lane_size(), 2u) << "pushes at the popped time use the lane";
  EXPECT_EQ(cal.size(), 4u);
  const auto order = drain_both(cal, ref);
  const std::vector<std::pair<QueueTime, std::uint64_t>> want = {
      {1.0, 1}, {1.0, 2}, {1.0, 3}, {1.0, 4}};
  EXPECT_EQ(order, want);
}

TEST(EventQueueLane, CancelBeforePopAfterPopAndTwice) {
  CalendarQueue cal;
  BinaryHeapQueue ref;
  cal.push(2.0, {}, nullptr);
  ref.push(2.0, {}, nullptr);
  cal.pop();
  ref.pop();
  const EventId a = cal.push(2.0, {}, nullptr);
  const EventId ra = ref.push(2.0, {}, nullptr);
  const EventId b = cal.push(2.0, {}, nullptr);
  const EventId rb = ref.push(2.0, {}, nullptr);
  const EventId c = cal.push(2.0, {}, nullptr);
  const EventId rc = ref.push(2.0, {}, nullptr);
  ASSERT_EQ(cal.lane_size(), 3u);

  // Before its pop: the middle entry is marked and skipped.
  EXPECT_TRUE(cal.cancel(b));
  EXPECT_TRUE(ref.cancel(rb));
  EXPECT_EQ(cal.size(), 2u);
  // Twice: the marked entry is not cancelled again.
  EXPECT_FALSE(cal.cancel(b)) << "double cancel of a lane event";
  EXPECT_FALSE(ref.cancel(rb));

  const QueuedEvent first = cal.pop();
  EXPECT_EQ(first.seq, ref.pop().seq);
  // After its pop: the id is stale.
  EXPECT_FALSE(cal.cancel(a)) << "cancel of a popped lane event";
  EXPECT_FALSE(ref.cancel(ra));

  // Cancelling the last live entry empties the lane and the queue.
  EXPECT_TRUE(cal.cancel(c));
  EXPECT_TRUE(ref.cancel(rc));
  EXPECT_TRUE(cal.empty());
  EXPECT_TRUE(ref.empty());
  EXPECT_FALSE(cal.cancel(c));
  EXPECT_EQ(cal.lane_size(), 0u);
}

TEST(EventQueueLane, PushBehindTheCursorWhileLaneIsBusy) {
  // Standalone users may push behind the last popped time. Those events go
  // to the calendar and still pop in (t, seq) order around the lane.
  CalendarQueue cal;
  BinaryHeapQueue ref;
  auto push = [&](QueueTime t) {
    cal.push(t, {}, nullptr);
    ref.push(t, {}, nullptr);
  };
  push(5.0);
  push(7.0);
  EXPECT_EQ(cal.pop().seq, ref.pop().seq);  // T = 5.0
  push(5.0);
  push(5.0);
  ASSERT_EQ(cal.lane_size(), 2u);
  push(3.0);  // behind the cursor, lane non-empty
  push(5.0);
  push(4.0);
  EXPECT_EQ(cal.lane_size(), 3u);
  const QueuedEvent early = cal.pop();
  EXPECT_EQ(early.t, 3.0);
  EXPECT_EQ(early.seq, ref.pop().seq);
  // The lane still holds 5.0, so a push at the popped 3.0 goes to the
  // calendar and pops before the lane.
  push(3.0);
  EXPECT_EQ(cal.lane_size(), 3u);
  const auto order = drain_both(cal, ref);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.front().first, 3.0);
  EXPECT_EQ(order[1].first, 4.0);
  EXPECT_EQ(order.back().first, 7.0);
}

TEST(EventQueueLane, RingGrowsAndWrapsAroundCancels) {
  // Refill the lane while it is part-drained, so its ring wraps, grows with
  // the queued entries split across the wrap point, and is cancelled into
  // on both sides of it.
  CalendarQueue cal;
  BinaryHeapQueue ref;
  std::vector<std::pair<EventId, EventId>> ids;
  auto push = [&](QueueTime t) {
    ids.emplace_back(cal.push(t, {}, nullptr), ref.push(t, {}, nullptr));
  };
  auto pop_both = [&] {
    const QueuedEvent a = cal.pop();
    const QueuedEvent b = ref.pop();
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.seq, b.seq);
  };
  push(0.5);
  pop_both();  // T = 0.5
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 50 + 40 * round; ++i) push(0.5);
    for (std::size_t k = 0; k < 10; ++k) {
      const std::size_t i = ids.size() - 1 - 5 * k;
      EXPECT_EQ(cal.cancel(ids[i].first), ref.cancel(ids[i].second));
    }
    for (int i = 0; i < 30; ++i) pop_both();
    ASSERT_EQ(cal.size(), ref.size());
    EXPECT_EQ(cal.lane_size(), cal.size()) << "every push lands on T";
  }
  push(0.75);
  drain_both(cal, ref);
  EXPECT_EQ(cal.lane_size(), 0u);
}

TEST(EventQueueLane, CallbackPayloadSurvivesTheLane) {
  CalendarQueue q;
  q.push(1.0, {}, nullptr);
  q.pop();
  int fired = 0;
  q.push(1.0, {}, [&fired] { fired += 7; });
  ASSERT_EQ(q.lane_size(), 1u);
  QueuedEvent ev = q.pop();
  EXPECT_DOUBLE_EQ(ev.t, 1.0);
  ASSERT_TRUE(ev.fn != nullptr);
  EXPECT_FALSE(static_cast<bool>(ev.h));
  ev.fn();
  EXPECT_EQ(fired, 7);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackPayloadSurvivesTransit) {
  CalendarQueue q;
  int fired = 0;
  q.push(1.0, {}, [&fired] { ++fired; });
  QueuedEvent ev = q.pop();
  ASSERT_TRUE(ev.fn != nullptr);
  EXPECT_FALSE(static_cast<bool>(ev.h));
  ev.fn();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace hmca::sim
