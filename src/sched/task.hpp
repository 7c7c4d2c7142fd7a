// Tasks and kernel-time accounting.
//
// Cosy's infinite-loop defence (§2.3): "we use a preemptive kernel that
// checks the running time of a Cosy process inside the kernel every time
// it is scheduled out. If this time has exceeded the maximum allowed
// kernel time then the process is terminated." Kernel time here is
// measured in deterministic work units charged by the boundary, the
// filesystems, and the CosyVM interpreter.
//
// Task state is atomic: a parked task can be killed (watchdog, explicit
// Scheduler::kill) from another CPU while its own CPU is inspecting it,
// and /proc readers snapshot states concurrently. seq_cst stores/loads
// on state_ and parked_on_ give the kill path a Dekker-style guarantee:
// either the parker observes kKilled before sleeping, or the killer
// observes the WaitQueue the task parked on and wakes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

namespace usk::sched {

using Pid = std::uint32_t;

class WaitQueue;

enum class TaskState {
  kRunnable,
  kRunning,
  kParked,  ///< scheduled out, blocked on a WaitQueue
  kExited,
  kKilled,  ///< terminated by the safety watchdog
};

/// "No affinity": the task may run (and be stolen) anywhere.
inline constexpr std::size_t kAnyCpu = ~static_cast<std::size_t>(0);

struct TaskTimes {
  std::uint64_t user = 0;    ///< work units spent in user mode
  std::uint64_t kernel = 0;  ///< work units spent in kernel mode
};

class Task {
 public:
  Task(Pid pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  [[nodiscard]] Pid pid() const { return pid_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TaskState state() const { return state_.load(); }
  void set_state(TaskState s) { state_.store(s); }
  /// CAS on the state; `expected` is updated on failure. Scheduling
  /// transitions (enter -> kRunning, enqueue -> kRunnable, unpark ->
  /// restore) use this so they can never overwrite a concurrent kill:
  /// a plain store would resurrect a task killed in the window between
  /// reading the state and writing the new one.
  bool cas_state(TaskState& expected, TaskState desired) {
    return state_.compare_exchange_strong(expected, desired);
  }
  [[nodiscard]] bool alive() const {
    TaskState s = state();
    return s == TaskState::kRunnable || s == TaskState::kRunning ||
           s == TaskState::kParked;
  }

  // --- placement ------------------------------------------------------------
  /// Preferred CPU (runqueue) for this task; kAnyCpu = unbound.
  [[nodiscard]] std::size_t affinity() const { return affinity_.load(); }
  void set_affinity(std::size_t cpu) { affinity_.store(cpu); }
  /// CPU the task last ran on (kAnyCpu until first enter); migration
  /// accounting compares against it.
  [[nodiscard]] std::size_t last_cpu() const { return last_cpu_.load(); }
  void set_last_cpu(std::size_t cpu) { last_cpu_.store(cpu); }

  /// WaitQueue this task is currently parked on (null when not parked).
  /// Written by WaitQueue::wait under its mutex; read by the kill path.
  [[nodiscard]] WaitQueue* parked_on() const { return parked_on_.load(); }
  void set_parked_on(WaitQueue* wq) { parked_on_.store(wq); }

  /// Cooperative cancellation (kdl). Unlike kill, cancel does not change
  /// the task state: the task keeps running and every syscall gateway /
  /// park observes the flag and unwinds with ECANCELED, releasing its
  /// resources on the way out. Set via Scheduler::cancel, which reuses
  /// the kill path's seq_cst parked_on handshake; cleared by the request
  /// teardown (dl::DeadlineScope destructor) once the unwind completes.
  [[nodiscard]] bool cancel_pending() const { return cancel_pending_.load(); }
  void set_cancel_pending(bool v) { cancel_pending_.store(v); }

  // --- kernel-mode bookkeeping -------------------------------------------
  void enter_kernel() {
    if (in_kernel_depth_++ == 0) kernel_visit_start_ = times_.kernel;
  }
  void exit_kernel() {
    if (in_kernel_depth_ > 0) --in_kernel_depth_;
  }
  [[nodiscard]] bool in_kernel() const { return in_kernel_depth_ > 0; }

  void charge_kernel(std::uint64_t units) { times_.kernel += units; }
  void charge_user(std::uint64_t units) { times_.user += units; }

  /// Kernel time accumulated during the *current* kernel visit.
  [[nodiscard]] std::uint64_t kernel_time_this_visit() const {
    return in_kernel() ? times_.kernel - kernel_visit_start_ : 0;
  }

  /// Per-visit kernel-time budget (Cosy's "maximum allowed kernel time").
  void set_kernel_budget(std::uint64_t units) { kernel_budget_ = units; }
  [[nodiscard]] std::uint64_t kernel_budget() const { return kernel_budget_; }
  [[nodiscard]] bool over_kernel_budget() const {
    return kernel_time_this_visit() > kernel_budget_;
  }

  [[nodiscard]] const TaskTimes& times() const { return times_; }

  // --- counters -------------------------------------------------------------
  std::uint64_t syscalls = 0;
  std::uint64_t preemptions = 0;
  /// Wall-clock nanoseconds spent inside system calls (accumulated by the
  /// syscall Scope); the "system time" a 2005 /usr/bin/time would report.
  std::uint64_t kernel_wall_ns = 0;
  /// Cumulative user<->kernel copy bytes for THIS task, which the syscall
  /// Scope diffs into each SyscallRecord; per-task, so concurrent
  /// syscalls never interleave another task's copies into a record.
  std::uint64_t bytes_from_user = 0;
  std::uint64_t bytes_to_user = 0;

 private:
  Pid pid_;
  std::string name_;
  std::atomic<TaskState> state_{TaskState::kRunnable};
  std::atomic<std::size_t> affinity_{kAnyCpu};
  std::atomic<std::size_t> last_cpu_{kAnyCpu};
  std::atomic<WaitQueue*> parked_on_{nullptr};
  std::atomic<bool> cancel_pending_{false};
  int in_kernel_depth_ = 0;
  std::uint64_t kernel_visit_start_ = 0;
  std::uint64_t kernel_budget_ = std::numeric_limits<std::uint64_t>::max();
  TaskTimes times_;
};

}  // namespace usk::sched
