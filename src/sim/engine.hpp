// The discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events fire in (time, insertion
// sequence) order. Rank programs are coroutines spawned as root tasks; the
// engine runs until every event has been processed, and reports a deadlock
// if root tasks remain blocked with an empty event queue.
//
// The scheduler is a calendar queue (sim/event_queue.hpp); the retained
// binary-heap reference and a differential test pin its pop order to the
// documented (time, sequence) contract.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace hmca::sim {

/// Error thrown for simulation protocol violations (deadlock, misuse).
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  /// Schedule a coroutine to resume at absolute time `t` (>= now).
  ///
  /// Same-timestamp ordering contract (FIFO tie-break): every schedule/
  /// schedule_callback call receives a monotonically increasing sequence
  /// number, and events fire in strictly lexicographic (t, seq) order.
  /// Two events scheduled for the same timestamp therefore fire in exactly
  /// the order they were scheduled, regardless of scheduler internals —
  /// this is what makes runs byte-identical and is pinned by the
  /// differential test against the reference binary-heap scheduler.
  ///
  /// Returns an EventId usable with cancel(); safe to discard.
  EventId schedule(std::coroutine_handle<> h, Time t);

  /// Schedule a plain callback at absolute time `t` (>= now). Same
  /// ordering contract (and EventId) as schedule().
  EventId schedule_callback(std::function<void()> fn, Time t);

  /// Remove a scheduled event before it fires. Returns false when the id
  /// is stale (event already fired or cancelled). O(1), or O(log k) for an
  /// event scheduled at the current time with k such events queued.
  /// Cancelling a coroutine event does not destroy the coroutine — the
  /// caller owns it.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Resume a coroutine at the current time (after already-queued events
  /// with the same timestamp).
  void schedule_now(std::coroutine_handle<> h) { schedule(h, now_); }

  /// Launch a root task. It starts at the current virtual time once the
  /// engine runs. Exceptions escaping a root task abort `run()`.
  void spawn(Task<void> t);

  /// Number of root tasks that have not yet completed.
  int alive_tasks() const noexcept { return alive_; }

  /// Total number of events dispatched so far (for tests/diagnostics).
  std::uint64_t events_dispatched() const noexcept { return dispatched_; }

  /// Run until the event queue drains. Throws SimError on deadlock and
  /// rethrows the first exception escaping any root task.
  void run() { run(0); }

  /// As run(), but throws SimError after dispatching `max_events` further
  /// events (0 = unlimited) — a watchdog for runaway simulations.
  void run(std::uint64_t max_events);

  /// Awaitable: suspend for `d` seconds of virtual time.
  auto sleep(Duration d) {
    struct Awaiter {
      Engine* eng;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng->schedule(h, eng->now() + d);
      }
      void await_resume() const noexcept {}
    };
    if (d < 0) throw SimError("Engine::sleep: negative duration");
    return Awaiter{this, d};
  }

  /// Awaitable: yield to other events queued at the current timestamp.
  auto yield() { return sleep(0.0); }

  // Root-task bookkeeping; called by the detached runner in engine.cpp.
  // Each live root registers its frame plus a pointer to the index slot
  // kept inside its promise, so deregistration is an O(1) swap-remove
  // (the moved entry's promise-side index is patched through the pointer).
  void note_root_started(void* frame, std::size_t* idx_slot);
  void note_root_finished(std::exception_ptr err);
  void note_root_destroyed(std::size_t idx);

 private:
  CalendarQueue queue_;
  std::vector<std::pair<void*, std::size_t*>> live_roots_;
  Time now_ = kTimeZero;
  std::uint64_t dispatched_ = 0;
  int alive_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace hmca::sim
