// Event-queue implementations for the discrete-event engine.
//
// Two queues with identical semantics live here:
//
//   CalendarQueue    the production scheduler: a self-resizing calendar
//                    queue (Brown 1988) with arena-allocated event nodes,
//                    O(1) amortized push/pop for the engine's mostly
//                    monotone schedule pattern, O(1) tail insertion for
//                    bursts of equal timestamps, and O(1) cancellation by
//                    unlinking — plus a same-timestamp FIFO lane that
//                    takes the pushes landing on the current time (the
//                    engine's schedule_now, wake-ups and spawns) without
//                    touching the buckets.
//   BinaryHeapQueue  the retained reference: the original binary-heap
//                    (std::priority_queue) scheduler with lazy-deletion
//                    cancel. Kept so the differential test in
//                    tests/sim/test_event_queue.cpp can assert the calendar
//                    queue pops in the exact same order on randomized
//                    schedule/cancel/re-schedule sequences.
//
// Ordering contract (both queues): events pop in strictly lexicographic
// (t, seq) order, where seq is the queue's monotonically increasing
// insertion counter — equal timestamps pop FIFO in push order. The engine's
// determinism guarantee (and the byte-identical trace tests built on it)
// rest on this contract, not on any scheduler internals.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace hmca::sim {

/// Virtual time (seconds) — mirrors sim/time.hpp without including it so
/// the queues stay standalone-testable.
using QueueTime = double;

/// Token identifying a scheduled event for cancellation. Encodes an arena
/// slot plus a per-slot generation, so a stale id (event already fired or
/// cancelled, slot reused) is detected and rejected.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// A popped event: either a coroutine handle or a callback (never both).
struct QueuedEvent {
  QueueTime t = 0.0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> h;
  std::function<void()> fn;
};

/// Calendar-queue scheduler. Push is O(1) amortized (sorted insertion into
/// a bucket; bursts of equal timestamps append at the bucket tail), pop is
/// O(1) amortized for dense schedules with a bounded direct-search fallback
/// for sparse ones, cancel is O(1). The bucket count doubles/halves with
/// the event population and the bucket width is re-estimated from the
/// queued time span on every resize, so performance adapts to the
/// simulation's event density without affecting pop order.
///
/// Same-timestamp lane (a "delta" FIFO beside the calendar). Once an event
/// at time T has popped, every push with t == T appends a {seq, payload}
/// entry to the lane instead of taking an arena node and a bucket; lane_t_
/// moves to a newly popped time only while the lane is empty. All lane
/// entries share lane_t_ and are appended in seq order, so the lane front
/// is the lane minimum, and pop takes the smaller (t, seq) of the lane
/// front and the cached calendar minimum: the pop order is exactly the
/// calendar-only order. Calendar events at T were pushed before T became
/// current, so they carry smaller seqs and pop first. Lane ids are
/// kLaneTag | seq; cancel binary-searches the seq-sorted lane and marks the
/// entry, O(log lane). The lane is a ring buffer whose slots are reused, so
/// steady same-timestamp traffic allocates nothing.
class CalendarQueue {
 public:
  CalendarQueue();

  /// Insert an event; returns a token usable with cancel(). The next
  /// monotone sequence number is assigned internally (FIFO tie-break).
  EventId push(QueueTime t, std::coroutine_handle<> h,
               std::function<void()> fn) {
    if (t != lane_t_) return push_calendar(t, h, std::move(fn));
    const std::uint64_t seq = seq_next_++;
    if (lane_len_ == lane_.size()) grow_lane();
    lane_at(lane_len_++) = LaneEntry{seq, h, std::move(fn)};
    ++lane_live_;
    return kLaneTag | seq;
  }

  /// Remove a not-yet-popped event. Returns false when the id is stale
  /// (already popped or cancelled). O(1) for calendar events, O(log lane)
  /// for lane events.
  bool cancel(EventId id);

  /// Remove and return the minimum (t, seq) event. Precondition: !empty().
  QueuedEvent pop() {
    if (lane_live_ > 0 && (count_ == 0 || lane_pops_first())) {
      return pop_lane();
    }
    return pop_calendar();
  }

  bool empty() const noexcept { return count_ + lane_live_ == 0; }
  std::size_t size() const noexcept { return count_ + lane_live_; }

  /// Queued events held by the same-timestamp lane (included in size()).
  std::size_t lane_size() const noexcept { return lane_live_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinBuckets = 16;
  /// Lane ids are kLaneTag | seq. Calendar ids keep their generation below
  /// 2^31 so the tag bit never appears in them.
  static constexpr EventId kLaneTag = EventId{1} << 63;
  /// Initial lane ring size; the ring doubles when full.
  static constexpr std::size_t kLaneMinSlots = 64;

  struct LaneEntry {
    std::uint64_t seq = 0;  // kLaneTag set: cancelled
    std::coroutine_handle<> h;
    std::function<void()> fn;
  };

  struct Node {
    QueueTime t = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> h;
    std::function<void()> fn;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bucket = 0;
    std::uint32_t gen = 1;
    bool live = false;
  };

  bool before(const Node& a, const Node& b) const noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Virtual (un-wrapped) bucket number of a timestamp; saturates instead
  /// of overflowing for pathological time/width ratios.
  std::uint64_t virtual_bucket(QueueTime t) const noexcept;

  std::uint32_t alloc_node();
  void free_node(std::uint32_t slot);
  void link_into_bucket(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  /// Point the scan cursor at the global minimum via a direct search over
  /// bucket heads (each head is its bucket's minimum). O(buckets).
  void locate_min();
  /// Slot of the calendar minimum, cached in peek_. Precondition: count_ > 0.
  std::uint32_t calendar_min();
  /// Whether the lane front precedes the calendar minimum in (t, seq).
  /// Precondition: lane_live_ > 0 and count_ > 0.
  bool lane_pops_first() {
    const Node& c = arena_[calendar_min()];
    return c.t != lane_t_ ? lane_t_ < c.t : lane_[lane_head_].seq < c.seq;
  }
  EventId push_calendar(QueueTime t, std::coroutine_handle<> h,
                        std::function<void()>&& fn);
  QueuedEvent pop_calendar();
  QueuedEvent pop_lane() {
    LaneEntry& e = lane_[lane_head_];
    QueuedEvent ev{lane_t_, e.seq, e.h, std::move(e.fn)};
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_len_;
    --lane_live_;
    if (lane_len_ != lane_live_) drop_cancelled();
    return ev;
  }
  /// The i-th queued lane entry from the front (i < lane_.size()).
  LaneEntry& lane_at(std::size_t i) {
    return lane_[(lane_head_ + i) & (lane_.size() - 1)];
  }
  void grow_lane();
  bool cancel_lane(std::uint64_t seq);
  /// Drop cancelled entries off the lane front, so a non-empty lane always
  /// starts with a live entry.
  void drop_cancelled();
  void resize(std::size_t nbuckets);
  void maybe_resize();

  std::vector<Node> arena_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint32_t> tails_;
  double width_ = 1e-6;
  double inv_width_ = 1e6;  // 1/width_, cached: binning is a hot multiply
  std::size_t count_ = 0;
  std::size_t resize_cooldown_ = 0;  // ops left before the next resize
  std::uint64_t seq_next_ = 0;
  std::uint64_t cur_vb_ = 0;  // scan cursor: current virtual bucket
  bool located_ = false;      // cur_vb_ valid (false after resize/drain)
  std::uint32_t peek_ = kNil;  // cached calendar minimum, kNil = unknown

  // Same-timestamp lane: a ring of power-of-two size holding lane_len_
  // entries in seq order from lane_head_; lane_live_ of them are not
  // cancelled.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_len_ = 0;
  std::size_t lane_live_ = 0;
  // Time the lane holds: the time last popped while the lane was empty.
  // NaN until the first pop, so no push matches it before then.
  QueueTime lane_t_ = std::numeric_limits<QueueTime>::quiet_NaN();
};

/// The original binary-heap scheduler, retained verbatim as the
/// differential-testing oracle. Cancellation is lazy: cancelled entries
/// stay in the heap and are skipped at pop.
class BinaryHeapQueue {
 public:
  EventId push(QueueTime t, std::coroutine_handle<> h, std::function<void()> fn);
  bool cancel(EventId id);
  QueuedEvent pop();

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }

 private:
  struct Slot {
    std::coroutine_handle<> h;
    std::function<void()> fn;
    std::uint32_t gen = 1;
    bool live = false;
  };
  struct Entry {
    QueueTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const Entry& o) const noexcept {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t seq_next_ = 0;
  std::size_t live_ = 0;
};

}  // namespace hmca::sim
