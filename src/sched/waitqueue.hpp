// WaitQueue: the kernel's one blocking primitive (event-driven wakeups).
//
// Eventcount-style park/wake. The contract that makes wakeups lossless:
//
//   waker                                sleeper
//   -----                                -------
//   lock(condition lock)                 lock(condition lock)
//   mutate state                         Token tok = wq.prepare()
//   wq.wake_all()  (or wake_one)         if (condition) -> done, no park
//   unlock                               unlock(condition lock)
//                                        wq.wait(tok, ...)
//
// prepare() snapshots the wake sequence BEFORE the sleeper re-checks its
// condition under the same lock the waker mutates it under; any wake
// posted after that snapshot makes the token stale, so wait() returns
// immediately instead of sleeping. There is no interval re-poll anywhere:
// a parked task sleeps until the event source wakes it, the watchdog
// kills it, or its caller-supplied deadline (a *user-requested* timeout,
// e.g. epoll_wait(timeout_ms)) expires.
//
// Kill semantics (the paper's §2.3 budget policy, preserved): parking
// goes through Scheduler::block, which runs schedule_out -- the watchdog
// examines the task's in-kernel time at every schedule-out, exactly as
// before. A task already parked is killable too: Scheduler::kill stores
// kKilled and wakes the queue recorded in Task::parked_on. Passing a
// null task parks uninterruptibly (the journal's D-state: a commit whose
// batch may already be on the medium must wait for the leader's verdict).
//
// Lock order: callers hold their own condition lock around prepare() and
// release it before wait(); WaitQueue's internal mutex is a leaf. Wakers
// may call wake_* while holding the condition lock (socket -> epoll ->
// waitqueue is the net stack's order).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "sched/task.hpp"

namespace usk::sched {

/// Process-wide park/wake accounting, aggregated over every WaitQueue
/// (sockets, epoll instances, rings, journals). Exposed as /proc/metrics
/// gauges and in /proc/sched/runqueues; the "timeouts" counter is the acceptance
/// gate for zero interval-polling wakeups -- only user-requested
/// deadlines may ever tick it.
struct WaitStats {
  std::atomic<std::uint64_t> parks{0};      ///< wait() calls that slept
  std::atomic<std::uint64_t> wakeups{0};    ///< wake_one + wake_all calls
  std::atomic<std::uint64_t> stale_tokens{0};  ///< waits satisfied pre-sleep
  std::atomic<std::uint64_t> kills_while_parked{0};
  std::atomic<std::uint64_t> cancels_while_parked{0};  ///< kdl cancel exits
  std::atomic<std::uint64_t> timeouts{0};   ///< user-deadline expiries
  std::atomic<std::int64_t> parked_now{0};
};

inline WaitStats& waitqueue_stats() {
  static WaitStats stats;
  return stats;
}

class WaitQueue {
 public:
  using Token = std::uint64_t;
  using Deadline = std::chrono::steady_clock::time_point;

  enum class Wait {
    kWoken,     ///< a wake was posted after the token was taken
    kKilled,    ///< the parked task was killed (watchdog or explicit)
    kCanceled,  ///< the parked task has a cooperative cancel pending (kdl)
    kTimeout,   ///< the caller-supplied deadline expired
  };

  /// Snapshot the wake sequence. Take the token, then re-check the wait
  /// condition under its lock, then drop the lock and wait(tok).
  [[nodiscard]] Token prepare() const {
    return seq_.load(std::memory_order_acquire);
  }

  /// Park until a wake newer than `tok`, a kill of `t`, or `deadline`.
  /// `t == nullptr` parks uninterruptibly (no kill exit, but the park is
  /// still counted). Returns immediately when the token is already stale.
  Wait wait(Token tok, Task* t, const Deadline* deadline = nullptr) {
    WaitStats& ws = waitqueue_stats();
    std::unique_lock lk(mu_);
    if (seq_.load(std::memory_order_relaxed) != tok) {
      ws.stale_tokens.fetch_add(1, std::memory_order_relaxed);
      return Wait::kWoken;
    }
    TaskState prev = TaskState::kRunning;
    if (t != nullptr) {
      t->set_parked_on(this);
      // Dekker handshake with Scheduler::kill: our parked_on store and
      // the killer's state store are both seq_cst, so either the pred
      // below sees kKilled or the killer sees parked_on and wakes us.
      // The park itself is a CAS for the same reason as the restore
      // below: a kill landing between the read and a plain store would
      // be overwritten, and the killer's wake would then report kWoken.
      prev = t->state();
      while (prev != TaskState::kKilled &&
             !t->cas_state(prev, TaskState::kParked)) {
      }
    }
    ws.parks.fetch_add(1, std::memory_order_relaxed);
    ws.parked_now.fetch_add(1, std::memory_order_relaxed);
    auto pred = [&] {
      return seq_.load(std::memory_order_relaxed) != tok ||
             (t != nullptr && (t->state() == TaskState::kKilled ||
                              t->cancel_pending()));
    };
    bool timed_out = false;
    if (deadline != nullptr) {
      timed_out = !cv_.wait_until(lk, *deadline, pred);
    } else {
      cv_.wait(lk, pred);
    }
    ws.parked_now.fetch_sub(1, std::memory_order_relaxed);
    if (t != nullptr) {
      t->set_parked_on(nullptr);
      // Restore via CAS from kParked: a kill landing between a plain
      // state read and a plain restore store would be overwritten (the
      // task would run on, resurrected). If the CAS loses, the state
      // changed under us -- the only writer that races an unpark is the
      // kill path, so report the kill.
      TaskState cur = TaskState::kParked;
      if (!t->cas_state(cur, prev) || prev == TaskState::kKilled) {
        ws.kills_while_parked.fetch_add(1, std::memory_order_relaxed);
        return Wait::kKilled;
      }
      // A kill outranks a cancel (the task is already dead); a cancel
      // outranks a timeout (the request is unwinding either way, and the
      // canceler deserves the deterministic ECANCELED it asked for).
      if (t->cancel_pending()) {
        ws.cancels_while_parked.fetch_add(1, std::memory_order_relaxed);
        return Wait::kCanceled;
      }
    }
    if (timed_out) {
      ws.timeouts.fetch_add(1, std::memory_order_relaxed);
      return Wait::kTimeout;
    }
    return Wait::kWoken;
  }

  /// Wake one parked task (any token taken before this call goes stale).
  void wake_one() {
    waitqueue_stats().wakeups.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lk(mu_);
      seq_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_one();
  }

  /// Wake every parked task.
  void wake_all() {
    waitqueue_stats().wakeups.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lk(mu_);
      seq_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace usk::sched
