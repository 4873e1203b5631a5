#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace hmca::sim {

namespace {

/// Bucket widths below this are clamped: the engine's timestamps span
/// nanoseconds to minutes, and a denormal width would overflow the virtual
/// bucket arithmetic long before it helped binning.
constexpr double kMinWidth = 1e-12;

constexpr std::uint64_t kMaxVirtualBucket =
    std::uint64_t{1} << 62;  // saturation point for t / width

EventId encode_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

/// Largest CalendarQueue generation; see CalendarQueue::kLaneTag.
constexpr std::uint32_t kMaxGen = 0x7fffffffu;

}  // namespace

// ---------------------------------------------------------------------------
// CalendarQueue

CalendarQueue::CalendarQueue()
    : heads_(kMinBuckets, kNil), tails_(kMinBuckets, kNil) {}

std::uint64_t CalendarQueue::virtual_bucket(QueueTime t) const noexcept {
  // Multiplying by the cached inverse instead of dividing may bin an event
  // one bucket off versus t / width_; binning only affects scan cost — pop
  // order is (virtual bucket, t, seq) and the mapping stays monotone in t.
  if (t <= 0.0) return 0;
  const double q = t * inv_width_;
  if (q >= static_cast<double>(kMaxVirtualBucket)) return kMaxVirtualBucket;
  return static_cast<std::uint64_t>(q);
}

std::uint32_t CalendarQueue::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void CalendarQueue::free_node(std::uint32_t slot) {
  Node& n = arena_[slot];
  n.h = {};
  n.fn = nullptr;
  n.live = false;
  n.gen = n.gen == kMaxGen ? 1 : n.gen + 1;
  free_.push_back(slot);
}

void CalendarQueue::link_into_bucket(std::uint32_t slot) {
  Node& n = arena_[slot];
  const std::uint64_t vb = virtual_bucket(n.t);
  const auto b = static_cast<std::uint32_t>(vb % heads_.size());
  n.bucket = b;
  // Walk backwards from the tail: the engine schedules mostly nondecreasing
  // (t, seq) keys, and same-timestamp bursts always carry increasing seq,
  // so the common case appends in O(1).
  std::uint32_t after = tails_[b];
  while (after != kNil && before(n, arena_[after])) after = arena_[after].prev;
  if (after == kNil) {
    n.prev = kNil;
    n.next = heads_[b];
    if (heads_[b] != kNil) arena_[heads_[b]].prev = slot;
    heads_[b] = slot;
    if (tails_[b] == kNil) tails_[b] = slot;
  } else {
    n.prev = after;
    n.next = arena_[after].next;
    arena_[after].next = slot;
    if (n.next != kNil) {
      arena_[n.next].prev = slot;
    } else {
      tails_[b] = slot;
    }
  }
  // A push behind the scan cursor (possible for standalone users without
  // the engine's monotone-time guarantee) rewinds the cursor.
  if (located_ && vb < cur_vb_) cur_vb_ = vb;
}

void CalendarQueue::unlink(std::uint32_t slot) {
  Node& n = arena_[slot];
  if (n.prev != kNil) {
    arena_[n.prev].next = n.next;
  } else {
    heads_[n.bucket] = n.next;
  }
  if (n.next != kNil) {
    arena_[n.next].prev = n.prev;
  } else {
    tails_[n.bucket] = n.prev;
  }
  n.prev = n.next = kNil;
}

EventId CalendarQueue::push_calendar(QueueTime t, std::coroutine_handle<> h,
                                     std::function<void()>&& fn) {
  const std::uint32_t slot = alloc_node();
  Node& n = arena_[slot];
  n.t = t;
  n.seq = seq_next_++;
  n.h = h;
  n.fn = std::move(fn);
  n.live = true;
  link_into_bucket(slot);
  ++count_;
  if (count_ == 1 || (peek_ != kNil && before(n, arena_[peek_]))) {
    peek_ = slot;
  }
  maybe_resize();
  return encode_id(slot, n.gen);
}

bool CalendarQueue::cancel(EventId id) {
  if ((id & kLaneTag) != 0) return cancel_lane(id & ~kLaneTag);
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= arena_.size()) return false;
  Node& n = arena_[slot];
  if (!n.live || n.gen != gen) return false;
  if (slot == peek_) peek_ = kNil;
  unlink(slot);
  free_node(slot);
  --count_;
  if (count_ == 0) {
    located_ = false;
  } else {
    maybe_resize();
  }
  return true;
}

void CalendarQueue::locate_min() {
  std::uint32_t best = kNil;
  for (const std::uint32_t head : heads_) {
    if (head == kNil) continue;
    if (best == kNil || before(arena_[head], arena_[best])) best = head;
  }
  // count_ > 0 guarantees a head exists.
  cur_vb_ = virtual_bucket(arena_[best].t);
  located_ = true;
}

void CalendarQueue::grow_lane() {
  std::vector<LaneEntry> grown(std::max(kLaneMinSlots, 2 * lane_.size()));
  for (std::size_t i = 0; i < lane_len_; ++i) grown[i] = std::move(lane_at(i));
  lane_.swap(grown);
  lane_head_ = 0;
}

bool CalendarQueue::cancel_lane(std::uint64_t seq) {
  // The queued entries are sorted by seq (cancelled ones keep theirs under
  // the tag bit); popped entries are outside the ring's queued range.
  std::size_t lo = 0;
  std::size_t hi = lane_len_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if ((lane_at(mid).seq & ~kLaneTag) < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == lane_len_) return false;
  LaneEntry& e = lane_at(lo);
  if (e.seq != seq) return false;  // never queued, or already cancelled
  e.seq |= kLaneTag;
  e.h = {};
  e.fn = nullptr;
  --lane_live_;
  drop_cancelled();
  return true;
}

void CalendarQueue::drop_cancelled() {
  while (lane_len_ > 0 && (lane_[lane_head_].seq & kLaneTag) != 0) {
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_len_;
  }
}

std::uint32_t CalendarQueue::calendar_min() {
  if (peek_ != kNil) return peek_;
  if (!located_) locate_min();
  const std::size_t nbuckets = heads_.size();
  for (;;) {
    for (std::size_t scanned = 0; scanned < nbuckets; ++scanned) {
      const auto b = static_cast<std::size_t>(cur_vb_ % nbuckets);
      const std::uint32_t head = heads_[b];
      // The head is the bucket minimum; it qualifies once the scan reaches
      // its year (same virtual bucket). Events in this bucket belonging to
      // later years wait for a later lap.
      if (head != kNil && virtual_bucket(arena_[head].t) <= cur_vb_) {
        peek_ = head;
        return head;
      }
      ++cur_vb_;
    }
    // A whole lap without a hit: the schedule went sparse. Jump the cursor
    // straight to the global minimum instead of walking empty years.
    locate_min();
  }
}

QueuedEvent CalendarQueue::pop_calendar() {
  const std::uint32_t slot = calendar_min();
  Node& n = arena_[slot];
  QueuedEvent ev;
  ev.t = n.t;
  ev.seq = n.seq;
  ev.h = n.h;
  ev.fn = std::move(n.fn);
  // Re-anchor the cursor at the popped time: every remaining calendar event
  // is at or after it, and a later push behind it rewinds the cursor.
  cur_vb_ = virtual_bucket(n.t);
  located_ = true;
  peek_ = kNil;
  unlink(slot);
  free_node(slot);
  --count_;
  if (count_ == 0) {
    located_ = false;
  } else {
    maybe_resize();
  }
  if (lane_live_ == 0) lane_t_ = ev.t;
  return ev;
}

void CalendarQueue::maybe_resize() {
  // Cooldown between resizes: relinking costs O(count), so allowing the
  // next resize only after ~count further operations keeps the amortized
  // cost O(1) even when the event population oscillates across a threshold
  // (phase-structured workloads drain and refill the queue repeatedly).
  if (resize_cooldown_ > 0) {
    --resize_cooldown_;
    return;
  }
  const std::size_t nbuckets = heads_.size();
  if (count_ > nbuckets * 2) {
    resize(nbuckets * 2);
  } else if (nbuckets > kMinBuckets && count_ < nbuckets / 8) {
    resize(std::max(kMinBuckets, nbuckets / 2));
  }
}

void CalendarQueue::resize(std::size_t nbuckets) {
  // Collect the live slots, then re-estimate the bucket width from the
  // queued time span: aiming for a handful of events per bucket per year
  // keeps both the insertion scans and the pop laps short. The estimate
  // only affects performance — pop order is pinned by (t, seq) regardless.
  std::vector<std::uint32_t> live;
  live.reserve(count_);
  for (std::size_t b = 0; b < heads_.size(); ++b) {
    for (std::uint32_t s = heads_[b]; s != kNil; s = arena_[s].next) {
      live.push_back(s);
    }
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::uint32_t s : live) {
    lo = std::min(lo, arena_[s].t);
    hi = std::max(hi, arena_[s].t);
  }
  double width = 1.0;
  if (!live.empty() && hi > lo) {
    width = (hi - lo) / static_cast<double>(live.size()) * 4.0;
  }
  if (!(width > kMinWidth)) width = kMinWidth;
  width_ = width;
  inv_width_ = 1.0 / width;

  heads_.assign(nbuckets, kNil);
  tails_.assign(nbuckets, kNil);
  for (const std::uint32_t s : live) {
    arena_[s].prev = arena_[s].next = kNil;
    link_into_bucket(s);
  }
  located_ = false;
  resize_cooldown_ = count_ * 8;
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue

EventId BinaryHeapQueue::push(QueueTime t, std::coroutine_handle<> h,
                              std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slots_.emplace_back();
    slot = static_cast<std::uint32_t>(slots_.size() - 1);
  }
  Slot& s = slots_[slot];
  s.h = h;
  s.fn = std::move(fn);
  s.live = true;
  heap_.push(Entry{t, seq_next_++, slot, s.gen});
  ++live_;
  return encode_id(slot, s.gen);
}

bool BinaryHeapQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;
  s.h = {};
  s.fn = nullptr;
  s.live = false;
  ++s.gen;
  free_.push_back(slot);
  --live_;
  return true;
}

QueuedEvent BinaryHeapQueue::pop() {
  for (;;) {
    const Entry e = heap_.top();
    heap_.pop();
    Slot& s = slots_[e.slot];
    if (!s.live || s.gen != e.gen) continue;  // lazily-deleted entry
    QueuedEvent ev;
    ev.t = e.t;
    ev.seq = e.seq;
    ev.h = s.h;
    ev.fn = std::move(s.fn);
    s.h = {};
    s.fn = nullptr;
    s.live = false;
    ++s.gen;
    free_.push_back(e.slot);
    --live_;
    return ev;
  }
}

}  // namespace hmca::sim
