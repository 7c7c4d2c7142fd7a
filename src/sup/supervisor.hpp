// ksup: the extension supervisor (circuit breaker + quotas + fallback).
//
// The paper's bargain is that user code runs inside the kernel only while
// it behaves: "the behavior of untrusted code will be observed" (§2.4) and
// the safety nets of §3 -- segments, Kefence, BCC, the preemption watchdog
// -- DETECT violations but leave the recovery policy to the caller. The
// supervisor is that policy. Every vehicle that runs user code in the
// kernel (Cosy compounds, consolidated calls, evmon rule monitors)
// registers an extension here and gets:
//
//   * health state -- a circuit breaker. Violations (protection faults,
//     watchdog kills, quota overruns, injected faults) drive
//     healthy -> probation -> quarantined; clean runs earn the way back.
//   * resource quotas -- per-invocation caps on kernel work units (ride
//     the scheduler watchdog's per-visit kernel budget), kmalloc bytes,
//     open fds, Cosy VM fuel and dirty pages, plus a rolling-window
//     work-unit cap fed by the supervisor's subscription to its Kernel's
//     syscall records (uk::Kernel::subscribe). An overrun kills only the
//     offending invocation, with the executor's fd rollback.
//   * graceful degradation -- a quarantined extension's entry point
//     re-routes to its classic user-space implementation (AdaptiveRegion
//     classic form, consolidated calls decomposed into their component
//     syscalls, monitor events deferred to a user-space log): the system
//     slows down instead of falling over.
//   * backoff re-admission -- after `backoff` fallback invocations a
//     probe runs the kernel path under full instrumentation; a clean
//     probe starts probation and N clean runs restore healthy, a failed
//     probe doubles the backoff (capped).
//
// Observability: /proc/sup/{extensions,quotas,events} (register_proc) and
// "sup" tracepoints. Disarmed cost: a Kernel with no subscriber pays one
// relaxed load per syscall (Kernel::has_subscribers).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/errno.hpp"
#include "blockdev/buffer_cache.hpp"
#include "sched/task.hpp"
#include "uk/kernel.hpp"

namespace usk::fs {
class ProcFs;
}

namespace usk::sup {

using ExtId = int;

enum class Health { kHealthy, kProbation, kQuarantined };
const char* health_name(Health h);

enum class Vehicle { kCosy, kConsolidated, kMonitor, kRing };
const char* vehicle_name(Vehicle v);

/// What route() tells the vehicle to do with the next invocation.
enum class Route {
  kKernel,    ///< run the in-kernel path
  kProbe,     ///< run the in-kernel path under full instrumentation
  kFallback,  ///< run the classic user-space implementation
};
const char* route_name(Route r);

enum class ViolationKind {
  kNone = 0,
  kSegFault,        ///< EFAULT: segment/bounds/copy violation
  kWatchdogKill,    ///< EKILLED/ETIME: runaway kernel time
  kQuotaUnits,      ///< per-invocation work-unit cap exceeded
  kQuotaWindow,     ///< rolling-window work-unit cap exceeded
  kQuotaKmalloc,    ///< per-invocation kmalloc-byte cap exceeded
  kQuotaFds,        ///< per-invocation open-fd cap exceeded
  kQuotaFuel,       ///< per-invocation Cosy VM fuel cap exceeded
  kQuotaDirty,      ///< per-invocation dirty-page budget exceeded
  kFaultInjected,   ///< kfail-class errno (EINTR/EIO/ECONNRESET/ENOMEM...)
  kProbeFailure,    ///< re-admission probe failed
  kMonitorAnomaly,  ///< rule monitor flagged as noisy/wrong
  kSloBreach,       ///< sustained latency/error SLO burn (sup/slo.hpp)
  kRetryBudget,     ///< tenant exhausted its kdl retry budget (dl/dl.hpp)
  kOther,           ///< any other abort (e.g. rejected compound)
};
const char* violation_name(ViolationKind k);

/// Per-extension resource caps. 0 = unlimited.
struct Quota {
  std::uint64_t invocation_units = 0;    ///< kernel work units per invocation
  std::uint64_t window_units = 0;        ///< work units per rolling window
  std::uint64_t invocation_kmalloc = 0;  ///< kmalloc bytes per invocation
  std::uint32_t invocation_fds = 0;      ///< fds held open at once
  std::uint64_t invocation_fuel = 0;     ///< Cosy ops + VM instructions
  std::uint64_t invocation_dirty = 0;    ///< page-cache blocks dirtied
};

/// Circuit-breaker tuning. Overridable per process with USK_SUP_SPEC
/// ("threshold=1,window=8,probation=2,backoff=2,mult=2,cap=8"); an
/// explicit set_policy always wins over the environment.
struct BreakerPolicy {
  std::uint32_t violation_threshold = 3;   ///< window violations -> quarantine
  std::uint64_t window_invocations = 64;   ///< rolling window length
  std::uint32_t probation_clean_runs = 4;  ///< clean runs -> healthy
  std::uint32_t backoff_initial = 4;       ///< fallbacks before first probe
  std::uint32_t backoff_multiplier = 2;    ///< failed probe: backoff *= this
  std::uint32_t backoff_cap = 64;          ///< backoff never exceeds this
};

enum class EventKind {
  kViolation,
  kQuotaOverrun,
  kProbation,
  kQuarantine,
  kProbeClean,
  kProbeFailed,
  kReadmission,
  kFallbackError,
  kReisolation,
};
const char* event_name(EventKind k);

struct SupEvent {
  std::uint64_t seq = 0;
  ExtId ext = -1;
  EventKind kind = EventKind::kViolation;
  ViolationKind vkind = ViolationKind::kNone;
  Errno err = Errno::kOk;
  std::uint64_t invocation = 0;  ///< the extension's invocation count
};

struct ExtStats {
  std::uint64_t invocations = 0;
  std::uint64_t kernel_runs = 0;
  std::uint64_t fallback_runs = 0;
  std::uint64_t probes = 0;
  std::uint64_t failed_probes = 0;
  std::uint64_t violations = 0;
  std::uint64_t quota_overruns = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t reisolations = 0;
  std::uint64_t fallback_errors = 0;
  std::uint64_t units_total = 0;  ///< work units of enclosed syscalls
};

class Supervisor;
class SloMonitor;

/// RAII for one supervised invocation. Create it AROUND the vehicle's
/// syscall Scope (the guard binds the calling thread so the supervisor's
/// subscription attributes every enclosed syscall's work units to the
/// extension, and installs the thread's blockdev dirty-charge hook), give
/// it a place to read the result from, and let the destructor classify
/// the outcome and drive the breaker. Vehicles running the classic
/// fallback create one with Route::kFallback so degraded work is
/// accounted too. Nestable; the innermost guard wins attribution.
class InvocationGuard {
 public:
  /// `task` may be null (monitor feeds have no task context): no budget
  /// narrowing, no unit delta. `ret` (if non-null) is read at destruction
  /// -- point it at the SysRet the invocation produces; alternatively
  /// call set_result().
  InvocationGuard(Supervisor& s, ExtId id, sched::Task* task, Route route,
                  const SysRet* ret = nullptr);
  ~InvocationGuard();
  InvocationGuard(const InvocationGuard&) = delete;
  InvocationGuard& operator=(const InvocationGuard&) = delete;

  void set_result(SysRet r) { result_ = r; }

  /// Quota checks for the executor. A false return means the cap is
  /// exceeded: abort the invocation with quota_errno() after rolling
  /// back its side effects. The first tripped cap is remembered and
  /// reported as the violation kind.
  [[nodiscard]] bool charge_fuel(std::uint64_t n);
  [[nodiscard]] bool charge_kmalloc(std::uint64_t bytes);
  /// Dirty-page budget: fed by the buffer cache through the dirty-charge
  /// hook this guard installs (blockdev::tl_dirty_charge) on every
  /// clean->dirty transition the invocation causes. A false return fails
  /// the write with EDQUOT before any cache state changes.
  [[nodiscard]] bool charge_dirty_pages(std::uint64_t blocks);
  [[nodiscard]] bool check_fds(std::size_t open_count);
  /// Straight-line work-unit check (loops are caught by the narrowed
  /// kernel budget at preemption points; this catches code that never
  /// reaches one).
  [[nodiscard]] bool over_unit_quota() const;
  /// Force a classification (e.g. the kCosyFuel injection site or a
  /// monitor anomaly) regardless of the result errno.
  void force_kind(ViolationKind k) { forced_kind_ = k; }

  [[nodiscard]] static Errno quota_errno() { return Errno::kEDQUOT; }

  [[nodiscard]] Supervisor& supervisor() const { return s_; }
  [[nodiscard]] ExtId ext() const { return id_; }
  [[nodiscard]] bool matches(const Supervisor& s, ExtId id) const {
    return &s_ == &s && id_ == id;
  }

  /// The innermost active guard on this thread (nullptr if none).
  [[nodiscard]] static InvocationGuard* current();

 private:
  Supervisor& s_;
  ExtId id_;
  sched::Task* task_;
  Route route_;
  const SysRet* ret_ptr_;
  SysRet result_ = 0;
  InvocationGuard* prev_;           ///< previous tl guard (nesting)
  blockdev::DirtyCharge prev_dirty_;  ///< restored at exit
  std::uint64_t units0_ = 0;        ///< task kernel units at entry
  std::uint64_t wall0_ = 0;         ///< ktrace timebase ns at entry (SLO)
  std::uint64_t old_budget_ = 0;    ///< restored at exit
  bool narrowed_ = false;
  std::uint64_t fuel_used_ = 0;
  std::uint64_t kmalloc_used_ = 0;
  std::uint64_t dirty_used_ = 0;
  ViolationKind forced_kind_ = ViolationKind::kNone;
};

class Supervisor final : private uk::SyscallSubscriber {
 public:
  /// Subscribes to `k`'s syscall records until destruction; `k` must
  /// outlive the supervisor.
  explicit Supervisor(uk::Kernel& k);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Register one extension (a Cosy entry point, a consolidated call
  /// site, a rule monitor). Thread-safe. Ids are dense and stable.
  ExtId register_extension(std::string name, Vehicle vehicle,
                           Quota quota = Quota{});

  /// Replace the default policy AND every registered extension's policy.
  void set_policy(const BreakerPolicy& p);
  void set_policy(ExtId id, const BreakerPolicy& p);
  void set_quota(ExtId id, const Quota& q);

  /// Routing decision for the extension's next invocation. Quarantined
  /// extensions count down their backoff here (each fallback invocation
  /// is one tick) and emit kProbe when it reaches zero.
  Route route(ExtId id);

  [[nodiscard]] Health health(ExtId id) const;
  [[nodiscard]] ExtStats stats(ExtId id) const;
  [[nodiscard]] Quota quota(ExtId id) const;
  [[nodiscard]] BreakerPolicy policy(ExtId id) const;
  [[nodiscard]] std::size_t extension_count() const;

  /// Out-of-band violation (e.g. a monitor anomaly observed outside an
  /// invocation guard).
  void record_violation(ExtId id, ViolationKind kind, Errno err);
  /// Registered name of an extension (copies under the lock).
  [[nodiscard]] std::string extension_name(ExtId id) const;
  /// Attach/detach the SLO monitor fed by every finished invocation
  /// (sup/slo.hpp). One relaxed load when none is attached.
  void set_slo_monitor(SloMonitor* m) {
    slo_.store(m, std::memory_order_release);
  }
  /// A trusted function lost its fast mode after a violation (Cosy §2.4
  /// heuristic trust): the supervisor logs it as an event so tests and
  /// operators can see the re-isolation happen.
  void record_reisolation(ExtId id, std::string_view fn_name);

  // --- observation ---------------------------------------------------------
  [[nodiscard]] std::vector<SupEvent> events() const;
  [[nodiscard]] std::uint64_t event_count(EventKind k) const;
  [[nodiscard]] std::string format_extensions() const;
  [[nodiscard]] std::string format_quotas() const;
  [[nodiscard]] std::string format_events() const;
  /// Mount /sup/{extensions,quotas,events} on a ProcFs (sup/proc.cpp).
  void register_proc(fs::ProcFs& pfs);

  /// Parse a BreakerPolicy spec ("threshold=N,window=N,probation=N,
  /// backoff=N,mult=N,cap=N", clauses optional). Returns false on a
  /// malformed spec (out-policy untouched).
  static bool policy_from_spec(std::string_view spec, BreakerPolicy* out);

 private:
  friend class InvocationGuard;

  struct Ext {
    std::string name;
    Vehicle vehicle = Vehicle::kCosy;
    Quota quota;
    BreakerPolicy policy;
    Health health = Health::kHealthy;
    std::uint32_t clean_streak = 0;       ///< probation progress
    std::uint32_t backoff_current = 0;    ///< current backoff length
    std::uint32_t backoff_remaining = 0;  ///< fallbacks until next probe
    std::deque<bool> window;              ///< rolling invocation outcomes
    std::uint32_t window_violations = 0;
    std::uint64_t window_units = 0;       ///< gateway units in window
    bool window_overrun = false;          ///< window-units cap tripped
    ExtStats stats;
  };

  /// Attribute one syscall's units to this supervisor's invocation bound
  /// to the thread, if the innermost guard is one.
  void on_syscall(const uk::SyscallRecord& r) override;

  /// Classify a finished invocation's result for `vehicle`.
  static ViolationKind classify(Vehicle vehicle, Errno e);

  /// Invocation epilogue (called by ~InvocationGuard). Breaker work runs
  /// under mu_; the SLO observation runs AFTER mu_ is released because
  /// the monitor may call straight back into record_violation().
  void finish_invocation(ExtId id, Route route, SysRet result,
                         std::uint64_t wall_ns, ViolationKind forced);
  void finish_invocation_locked(Ext& e, ExtId id, Route route,
                                SysRet result, ViolationKind kind,
                                Errno err);

  // The following run under mu_.
  void record_violation_locked(Ext& e, ExtId id, ViolationKind kind,
                               Errno err);
  void push_event_locked(Ext& e, ExtId id, EventKind kind,
                         ViolationKind vkind, Errno err);
  void push_window_locked(Ext& e, bool violation);
  void enter_quarantine_locked(Ext& e, ExtId id);

  uk::Kernel& k_;
  BreakerPolicy default_policy_;
  std::atomic<SloMonitor*> slo_{nullptr};
  mutable std::mutex mu_;
  std::vector<Ext> exts_;
  std::deque<SupEvent> events_;
  std::uint64_t event_seq_ = 0;
  static constexpr std::size_t kMaxEvents = 1024;
};

}  // namespace usk::sup
