// Coroutine synchronization primitives for the simulation engine.
//
// All primitives are single-threaded (engine-owned); "blocking" means the
// coroutine suspends and is resumed through the engine's event queue, which
// preserves deterministic (time, sequence) ordering.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace hmca::sim {

/// A broadcast condition: coroutines wait until notified. Unlike an OS
/// condition variable there are no spurious wakeups, but callers should
/// still re-check their predicate via `wait_until`.
class Condition {
 public:
  explicit Condition(Engine& eng) : eng_(&eng) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Awaitable that suspends until the next notify.
  auto wait() {
    struct Awaiter {
      Condition* c;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { c->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Suspend until `pred()` holds, re-checking after every notify.
  template <class Pred>
  Task<void> wait_until(Pred pred) {
    while (!pred()) co_await wait();
  }

  /// Wake all current waiters at the present virtual time.
  void notify_all() {
    if (waiters_.empty()) return;
    // Swap through a scratch buffer so both vectors keep their capacity:
    // a moved-from vector would reallocate on the next wait. Safe against
    // re-waits because schedule_now only enqueues — nothing resumes (or
    // re-registers) until this call has returned.
    scratch_.clear();
    scratch_.swap(waiters_);
    for (auto h : scratch_) eng_->schedule_now(h);
  }

  /// Wake the earliest waiter, if any.
  void notify_one() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.erase(waiters_.begin());
    eng_->schedule_now(h);
  }

  Engine& engine() const noexcept { return *eng_; }

 private:
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> scratch_;  // capacity reuse, see notify_all
};

/// Counting semaphore with FIFO wakeup order.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::int64_t initial) : eng_(&eng), count_(initial) {}

  Task<void> acquire(std::int64_t n = 1) {
    while (count_ < n) co_await cv_wait();
    count_ -= n;
  }

  void release(std::int64_t n = 1) {
    count_ += n;
    // Wake everyone; unsatisfied waiters re-suspend. Deterministic but not
    // cheap: GraphExecutor::run spawns every ready task at once onto one CPU
    // or shm lane per rank, so on the hostbench workloads 61-82% of all
    // dispatched events are wake-ups that find no free slot. The herd is
    // pinned by the recorded event counts; changing it to a FIFO hand-off
    // changes those counts. Swapped through scratch for capacity reuse (see
    // Condition).
    if (waiters_.empty()) return;
    scratch_.clear();
    scratch_.swap(waiters_);
    for (auto h : scratch_) eng_->schedule_now(h);
  }

 private:
  struct WaitAwaiter {
    Semaphore* s;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { s->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  WaitAwaiter cv_wait() { return WaitAwaiter{this}; }
  Engine* eng_;
  std::int64_t count_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> scratch_;
};

/// Reusable cyclic barrier for a fixed participant count.
class Barrier {
 public:
  Barrier(Engine& eng, int parties) : cv_(eng), parties_(parties) {}

  Task<void> arrive_and_wait() {
    const std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      co_return;
    }
    co_await cv_.wait_until([&] { return generation_ != gen; });
  }

  int parties() const noexcept { return parties_; }

 private:
  Condition cv_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// Tracks a set of forked child tasks; `wait()` resumes when all complete.
/// Children run as engine root tasks, so their exceptions surface in run().
class WaitGroup {
 public:
  explicit WaitGroup(Engine& eng) : eng_(&eng), cv_(eng) {}

  void spawn(Task<void> t) {
    ++pending_;
    eng_->spawn(wrap(std::move(t)));
  }

  Task<void> wait() {
    co_await cv_.wait_until([&] { return pending_ == 0; });
  }

  int pending() const noexcept { return pending_; }

 private:
  Task<void> wrap(Task<void> t) {
    co_await std::move(t);
    if (--pending_ == 0) cv_.notify_all();
  }
  Engine* eng_;
  Condition cv_;
  int pending_ = 0;
};

}  // namespace hmca::sim
