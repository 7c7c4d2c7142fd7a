#include "sup/supervisor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "base/klog.hpp"
#include "fault/kfail.hpp"
#include "sup/slo.hpp"
#include "trace/ktrace.hpp"
#include "trace/tracepoint.hpp"

namespace usk::sup {

namespace {

/// The innermost active guard on this thread; Supervisor::on_syscall
/// reads it to attribute work units to the running invocation.
thread_local InvocationGuard* tl_guard = nullptr;

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// The dirty-charge hook a supervised invocation installs.
bool charge_dirty(void* guard, std::uint64_t blocks) {
  return static_cast<InvocationGuard*>(guard)->charge_dirty_pages(blocks);
}

}  // namespace

const char* health_name(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kProbation: return "probation";
    case Health::kQuarantined: return "quarantined";
  }
  return "?";
}

const char* vehicle_name(Vehicle v) {
  switch (v) {
    case Vehicle::kCosy: return "cosy";
    case Vehicle::kConsolidated: return "consolidated";
    case Vehicle::kMonitor: return "monitor";
    case Vehicle::kRing: return "ring";
  }
  return "?";
}

const char* route_name(Route r) {
  switch (r) {
    case Route::kKernel: return "kernel";
    case Route::kProbe: return "probe";
    case Route::kFallback: return "fallback";
  }
  return "?";
}

const char* violation_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kNone: return "none";
    case ViolationKind::kSegFault: return "segfault";
    case ViolationKind::kWatchdogKill: return "watchdog";
    case ViolationKind::kQuotaUnits: return "quota-units";
    case ViolationKind::kQuotaWindow: return "quota-window";
    case ViolationKind::kQuotaKmalloc: return "quota-kmalloc";
    case ViolationKind::kQuotaFds: return "quota-fds";
    case ViolationKind::kQuotaFuel: return "quota-fuel";
    case ViolationKind::kQuotaDirty: return "quota-dirty";
    case ViolationKind::kFaultInjected: return "fault-injected";
    case ViolationKind::kProbeFailure: return "probe-failure";
    case ViolationKind::kMonitorAnomaly: return "monitor-anomaly";
    case ViolationKind::kSloBreach: return "slo-breach";
    case ViolationKind::kRetryBudget: return "retry-budget";
    case ViolationKind::kOther: return "other";
  }
  return "?";
}

const char* event_name(EventKind k) {
  switch (k) {
    case EventKind::kViolation: return "violation";
    case EventKind::kQuotaOverrun: return "quota-overrun";
    case EventKind::kProbation: return "probation";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kProbeClean: return "probe-clean";
    case EventKind::kProbeFailed: return "probe-failed";
    case EventKind::kReadmission: return "readmission";
    case EventKind::kFallbackError: return "fallback-error";
    case EventKind::kReisolation: return "reisolation";
  }
  return "?";
}

// --- InvocationGuard --------------------------------------------------------

InvocationGuard::InvocationGuard(Supervisor& s, ExtId id, sched::Task* task,
                                 Route route, const SysRet* ret)
    : s_(s), id_(id), task_(task), route_(route), ret_ptr_(ret),
      prev_(tl_guard) {
  tl_guard = this;
  // The buffer cache charges this invocation's dirty-page budget on every
  // clean->dirty transition the thread causes; a fallback run is classic
  // user-space code, exempt.
  blockdev::DirtyCharge charge;
  if (route_ != Route::kFallback) charge = {&charge_dirty, this};
  prev_dirty_ = std::exchange(blockdev::tl_dirty_charge, charge);
  wall0_ = trace::ktrace().now_ns();
  if (task_ != nullptr) {
    units0_ = task_->times().kernel;
    old_budget_ = task_->kernel_budget();
    // Per-invocation work-unit cap: narrow the task's per-visit kernel
    // budget so the scheduler watchdog (the gateway's enforcement arm)
    // kills the invocation at its next preemption point. Fallback runs
    // are classic user-space code and keep the pre-existing budget.
    const Quota q = s_.quota(id_);
    if (route_ != Route::kFallback && q.invocation_units != 0 &&
        q.invocation_units < old_budget_ && !task_->in_kernel()) {
      task_->set_kernel_budget(q.invocation_units);
      narrowed_ = true;
    }
  }
}

InvocationGuard::~InvocationGuard() {
  tl_guard = prev_;
  blockdev::tl_dirty_charge = prev_dirty_;
  std::uint64_t units = 0;
  if (task_ != nullptr) {
    if (narrowed_) task_->set_kernel_budget(old_budget_);
    units = task_->times().kernel - units0_;
  }
  SysRet result = ret_ptr_ != nullptr ? *ret_ptr_ : result_;
  ViolationKind forced = forced_kind_;
  // The narrowed budget turns a unit-quota overrun into a watchdog kill;
  // reclassify it so the event ledger names the quota, not the watchdog.
  if (forced == ViolationKind::kNone && narrowed_ &&
      sysret_is_err(result)) {
    const Errno e = sysret_errno(result);
    if ((e == Errno::kEKILLED || e == Errno::kETIME) &&
        units >= s_.quota(id_).invocation_units) {
      forced = ViolationKind::kQuotaUnits;
    }
  }
  const std::uint64_t wall_ns = trace::ktrace().now_ns() - wall0_;
  s_.finish_invocation(id_, route_, result, wall_ns, forced);
}

bool InvocationGuard::charge_fuel(std::uint64_t n) {
  fuel_used_ += n;
  const Quota q = s_.quota(id_);
  if (q.invocation_fuel != 0 && fuel_used_ > q.invocation_fuel) {
    if (forced_kind_ == ViolationKind::kNone) {
      forced_kind_ = ViolationKind::kQuotaFuel;
    }
    return false;
  }
  return true;
}

bool InvocationGuard::charge_kmalloc(std::uint64_t bytes) {
  kmalloc_used_ += bytes;
  const Quota q = s_.quota(id_);
  if (q.invocation_kmalloc != 0 && kmalloc_used_ > q.invocation_kmalloc) {
    if (forced_kind_ == ViolationKind::kNone) {
      forced_kind_ = ViolationKind::kQuotaKmalloc;
    }
    return false;
  }
  return true;
}

bool InvocationGuard::charge_dirty_pages(std::uint64_t blocks) {
  dirty_used_ += blocks;
  const Quota q = s_.quota(id_);
  if (q.invocation_dirty != 0 && dirty_used_ > q.invocation_dirty) {
    if (forced_kind_ == ViolationKind::kNone) {
      forced_kind_ = ViolationKind::kQuotaDirty;
    }
    return false;
  }
  return true;
}

bool InvocationGuard::check_fds(std::size_t open_count) {
  const Quota q = s_.quota(id_);
  if (q.invocation_fds != 0 && open_count > q.invocation_fds) {
    if (forced_kind_ == ViolationKind::kNone) {
      forced_kind_ = ViolationKind::kQuotaFds;
    }
    return false;
  }
  return true;
}

bool InvocationGuard::over_unit_quota() const {
  if (task_ == nullptr) return false;
  const Quota q = s_.quota(id_);
  if (q.invocation_units == 0) return false;
  return task_->times().kernel - units0_ > q.invocation_units;
}

InvocationGuard* InvocationGuard::current() { return tl_guard; }

// --- Supervisor -------------------------------------------------------------

Supervisor::Supervisor(uk::Kernel& k) : k_(k) {
  if (const char* spec = std::getenv("USK_SUP_SPEC")) {
    BreakerPolicy p;
    if (policy_from_spec(spec, &p)) {
      default_policy_ = p;
    } else {
      USK_KLOG(base::LogLevel::kWarn, "sup: malformed USK_SUP_SPEC '%s'",
               spec);
    }
  }
  uk::g_live_supervisors.fetch_add(1, std::memory_order_relaxed);
  k_.subscribe(*this);
}

Supervisor::~Supervisor() {
  k_.unsubscribe(*this);
  uk::g_live_supervisors.fetch_sub(1, std::memory_order_relaxed);
}

ExtId Supervisor::register_extension(std::string name, Vehicle vehicle,
                                     Quota quota) {
  std::lock_guard lk(mu_);
  Ext e;
  e.name = std::move(name);
  e.vehicle = vehicle;
  e.quota = quota;
  e.policy = default_policy_;
  exts_.push_back(std::move(e));
  return static_cast<ExtId>(exts_.size() - 1);
}

void Supervisor::set_policy(const BreakerPolicy& p) {
  std::lock_guard lk(mu_);
  default_policy_ = p;
  for (Ext& e : exts_) e.policy = p;
}

void Supervisor::set_policy(ExtId id, const BreakerPolicy& p) {
  std::lock_guard lk(mu_);
  exts_.at(static_cast<std::size_t>(id)).policy = p;
}

void Supervisor::set_quota(ExtId id, const Quota& q) {
  std::lock_guard lk(mu_);
  exts_.at(static_cast<std::size_t>(id)).quota = q;
}

Route Supervisor::route(ExtId id) {
  std::lock_guard lk(mu_);
  Ext& e = exts_.at(static_cast<std::size_t>(id));
  switch (e.health) {
    case Health::kHealthy:
    case Health::kProbation:
      return Route::kKernel;
    case Health::kQuarantined:
      if (e.backoff_remaining > 0) {
        --e.backoff_remaining;
        return Route::kFallback;
      }
      return Route::kProbe;
  }
  return Route::kKernel;
}

Health Supervisor::health(ExtId id) const {
  std::lock_guard lk(mu_);
  return exts_.at(static_cast<std::size_t>(id)).health;
}

ExtStats Supervisor::stats(ExtId id) const {
  std::lock_guard lk(mu_);
  return exts_.at(static_cast<std::size_t>(id)).stats;
}

Quota Supervisor::quota(ExtId id) const {
  std::lock_guard lk(mu_);
  return exts_.at(static_cast<std::size_t>(id)).quota;
}

BreakerPolicy Supervisor::policy(ExtId id) const {
  std::lock_guard lk(mu_);
  return exts_.at(static_cast<std::size_t>(id)).policy;
}

std::size_t Supervisor::extension_count() const {
  std::lock_guard lk(mu_);
  return exts_.size();
}

void Supervisor::record_violation(ExtId id, ViolationKind kind, Errno err) {
  std::lock_guard lk(mu_);
  Ext& e = exts_.at(static_cast<std::size_t>(id));
  record_violation_locked(e, id, kind, err);
}

std::string Supervisor::extension_name(ExtId id) const {
  std::lock_guard lk(mu_);
  return exts_.at(static_cast<std::size_t>(id)).name;
}

void Supervisor::record_reisolation(ExtId id, std::string_view fn_name) {
  std::lock_guard lk(mu_);
  Ext& e = exts_.at(static_cast<std::size_t>(id));
  ++e.stats.reisolations;
  push_event_locked(e, id, EventKind::kReisolation, ViolationKind::kSegFault,
                    Errno::kEFAULT);
  USK_TRACEPOINT("sup", "reisolation", static_cast<std::uint64_t>(id));
  USK_KLOG_RATELIMIT_NAMED(
      "sup.reisolation", base::LogLevel::kWarn, 16u,
      "sup: extension %d function '%.*s' re-isolated after violation", id,
      static_cast<int>(fn_name.size()), fn_name.data());
}

std::vector<SupEvent> Supervisor::events() const {
  std::lock_guard lk(mu_);
  return {events_.begin(), events_.end()};
}

std::uint64_t Supervisor::event_count(EventKind k) const {
  std::lock_guard lk(mu_);
  std::uint64_t n = 0;
  for (const SupEvent& e : events_) {
    if (e.kind == k) ++n;
  }
  return n;
}

bool Supervisor::policy_from_spec(std::string_view spec, BreakerPolicy* out) {
  BreakerPolicy p = *out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;
    std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos) return false;
    std::string_view key = clause.substr(0, eq);
    std::uint64_t v = 0;
    if (!parse_u64(clause.substr(eq + 1), &v)) return false;
    if (key == "threshold") {
      if (v == 0) return false;
      p.violation_threshold = static_cast<std::uint32_t>(v);
    } else if (key == "window") {
      if (v == 0) return false;
      p.window_invocations = v;
    } else if (key == "probation") {
      if (v == 0) return false;
      p.probation_clean_runs = static_cast<std::uint32_t>(v);
    } else if (key == "backoff") {
      p.backoff_initial = static_cast<std::uint32_t>(v);
    } else if (key == "mult") {
      if (v == 0) return false;
      p.backoff_multiplier = static_cast<std::uint32_t>(v);
    } else if (key == "cap") {
      if (v == 0) return false;
      p.backoff_cap = static_cast<std::uint32_t>(v);
    } else {
      return false;
    }
  }
  *out = p;
  return true;
}

void Supervisor::on_syscall(const uk::SyscallRecord& r) {
  InvocationGuard* g = tl_guard;
  if (g == nullptr || &g->supervisor() != this) return;
  std::lock_guard lk(mu_);
  Ext& e = exts_.at(static_cast<std::size_t>(g->ext()));
  e.stats.units_total += r.kunits;
  e.window_units += r.kunits;
  if (e.quota.window_units != 0 && e.window_units > e.quota.window_units) {
    // Can't abort a syscall from its epilogue; flag the overrun and let
    // the invocation epilogue turn it into a violation.
    e.window_overrun = true;
  }
}

ViolationKind Supervisor::classify(Vehicle vehicle, Errno e) {
  switch (e) {
    case Errno::kOk:
      return ViolationKind::kNone;
    case Errno::kEFAULT:
      return ViolationKind::kSegFault;
    case Errno::kEKILLED:
    case Errno::kETIME:
      return ViolationKind::kWatchdogKill;
    case Errno::kEDQUOT:
      return ViolationKind::kQuotaFuel;  // guard overrides with the real kind
    case Errno::kEINTR:
    case Errno::kEIO:
    case Errno::kECONNRESET:
    case Errno::kENOMEM:
    case Errno::kEPIPE:
      // The kfail errno class. In this simulation a reset on a supervised
      // path is treated as the extension misbehaving (real clients
      // hanging up would be indistinguishable; the breaker threshold
      // absorbs rare benign ones).
      return ViolationKind::kFaultInjected;
    case Errno::kEINVAL:
      // A rejected compound / malformed request reaching the kernel:
      // misbehaving for cosy (the extension shipped a bad program),
      // benign for syscall-shaped vehicles.
      return vehicle == Vehicle::kCosy ? ViolationKind::kOther
                                       : ViolationKind::kNone;
    default:
      return ViolationKind::kNone;  // EAGAIN, EBADF, ENOENT, ... benign
  }
}

void Supervisor::finish_invocation(ExtId id, Route route, SysRet result,
                                   std::uint64_t wall_ns,
                                   ViolationKind forced) {
  {
    std::lock_guard lk(mu_);
    Ext& e = exts_.at(static_cast<std::size_t>(id));
    ++e.stats.invocations;
    const Errno err = sysret_errno(result);
    const ViolationKind kind = forced != ViolationKind::kNone
                                   ? forced
                                   : classify(e.vehicle, err);
    finish_invocation_locked(e, id, route, result, kind, err);
  }
  // SLO observation outside mu_: the monitor records its histogram and a
  // breach verdict calls record_violation(), which takes mu_ again. Only
  // kernel-path runs are observed -- scoring the deliberately-slower
  // fallback would keep a quarantined extension breaching forever and
  // the probe path could never recover it.
  if (route != Route::kFallback) {
    if (SloMonitor* m = slo_.load(std::memory_order_acquire)) {
      m->observe(id, wall_ns, !sysret_is_err(result));
    }
  }
}

void Supervisor::finish_invocation_locked(Ext& e, ExtId id, Route route,
                                          SysRet result, ViolationKind kind,
                                          Errno err) {
  if (route == Route::kFallback) {
    ++e.stats.fallback_runs;
    push_window_locked(e, false);
    if (sysret_is_err(result)) {
      ++e.stats.fallback_errors;
      push_event_locked(e, id, EventKind::kFallbackError,
                        ViolationKind::kNone, err);
    }
    return;
  }

  // The rolling-window work-unit cap tripped by the gateway during this
  // (or an earlier) invocation surfaces here, where state can change.
  if (kind == ViolationKind::kNone && e.window_overrun) {
    kind = ViolationKind::kQuotaWindow;
  }
  if (e.window_overrun) {
    e.window_overrun = false;
    e.window_units = 0;  // start a fresh unit window after the verdict
  }

  if (route == Route::kProbe) {
    ++e.stats.probes;
    if (kind == ViolationKind::kNone) {
      // Deterministic probe-failure injection: a clean probe can still be
      // failed by the harness to exercise the backoff-doubling path.
      if (auto f = USK_FAIL_POINT(fault::Site::kSupProbe); f.fail) {
        kind = ViolationKind::kProbeFailure;
      }
    } else if (kind != ViolationKind::kProbeFailure) {
      kind = ViolationKind::kProbeFailure;
    }
    if (kind == ViolationKind::kNone) {
      e.health = Health::kProbation;
      e.clean_streak = 1;
      push_window_locked(e, false);
      push_event_locked(e, id, EventKind::kProbeClean, ViolationKind::kNone,
                        Errno::kOk);
      USK_TRACEPOINT("sup", "probe_clean", static_cast<std::uint64_t>(id));
      if (e.clean_streak >= e.policy.probation_clean_runs) {
        e.health = Health::kHealthy;
        ++e.stats.readmissions;
        e.backoff_current = e.policy.backoff_initial;
        push_event_locked(e, id, EventKind::kReadmission,
                          ViolationKind::kNone, Errno::kOk);
        USK_TRACEPOINT("sup", "readmission", static_cast<std::uint64_t>(id));
      }
    } else {
      ++e.stats.failed_probes;
      ++e.stats.violations;
      push_window_locked(e, true);
      e.backoff_current = std::min(
          e.backoff_current * e.policy.backoff_multiplier,
          e.policy.backoff_cap);
      if (e.backoff_current == 0) e.backoff_current = 1;
      e.backoff_remaining = e.backoff_current;
      push_event_locked(e, id, EventKind::kProbeFailed, kind, err);
      USK_TRACEPOINT("sup", "probe_failed", static_cast<std::uint64_t>(id),
                     e.backoff_current);
      USK_KLOG_RATELIMIT_NAMED(
          "sup.probe", base::LogLevel::kWarn, 16u,
          "sup: extension %d ('%s') probe failed (%s); backoff now %u", id,
          e.name.c_str(), violation_name(kind), e.backoff_current);
    }
    return;
  }

  // route == Route::kKernel
  ++e.stats.kernel_runs;
  if (kind == ViolationKind::kNone) {
    push_window_locked(e, false);
    if (e.health == Health::kProbation) {
      if (++e.clean_streak >= e.policy.probation_clean_runs) {
        e.health = Health::kHealthy;
        e.clean_streak = 0;
        ++e.stats.readmissions;
        e.backoff_current = e.policy.backoff_initial;
        push_event_locked(e, id, EventKind::kReadmission,
                          ViolationKind::kNone, Errno::kOk);
        USK_TRACEPOINT("sup", "readmission", static_cast<std::uint64_t>(id));
        USK_KLOG_RATELIMIT_NAMED(
            "sup.readmit", base::LogLevel::kInfo, 16u,
            "sup: extension %d ('%s') re-admitted after %u clean runs", id,
            e.name.c_str(), e.policy.probation_clean_runs);
      }
    }
    return;
  }
  record_violation_locked(e, id, kind, err);
}

void Supervisor::record_violation_locked(Ext& e, ExtId id,
                                         ViolationKind kind, Errno err) {
  ++e.stats.violations;
  e.clean_streak = 0;
  push_window_locked(e, true);
  const bool quota =
      kind == ViolationKind::kQuotaUnits ||
      kind == ViolationKind::kQuotaWindow ||
      kind == ViolationKind::kQuotaKmalloc ||
      kind == ViolationKind::kQuotaFds ||
      kind == ViolationKind::kQuotaFuel ||
      kind == ViolationKind::kQuotaDirty;
  if (quota) ++e.stats.quota_overruns;
  push_event_locked(e, id,
                    quota ? EventKind::kQuotaOverrun : EventKind::kViolation,
                    kind, err);
  USK_TRACEPOINT("sup", "violation", static_cast<std::uint64_t>(id),
                 static_cast<std::uint64_t>(kind));
  switch (e.health) {
    case Health::kHealthy:
      e.health = Health::kProbation;
      push_event_locked(e, id, EventKind::kProbation, kind, err);
      USK_TRACEPOINT("sup", "probation", static_cast<std::uint64_t>(id));
      break;
    case Health::kProbation:
      if (e.window_violations >= e.policy.violation_threshold) {
        enter_quarantine_locked(e, id);
      }
      break;
    case Health::kQuarantined:
      break;  // already out of the kernel
  }
}

void Supervisor::push_event_locked(Ext& e, ExtId id, EventKind kind,
                                   ViolationKind vkind, Errno err) {
  events_.push_back(SupEvent{event_seq_++, id, kind, vkind, err,
                             e.stats.invocations});
  if (events_.size() > kMaxEvents) events_.pop_front();
}

void Supervisor::push_window_locked(Ext& e, bool violation) {
  e.window.push_back(violation);
  if (violation) ++e.window_violations;
  while (e.window.size() > e.policy.window_invocations) {
    if (e.window.front()) --e.window_violations;
    e.window.pop_front();
  }
}

void Supervisor::enter_quarantine_locked(Ext& e, ExtId id) {
  e.health = Health::kQuarantined;
  ++e.stats.quarantines;
  e.clean_streak = 0;
  if (e.backoff_current == 0) e.backoff_current = e.policy.backoff_initial;
  if (e.backoff_current == 0) e.backoff_current = 1;
  e.backoff_remaining = e.backoff_current;
  push_event_locked(e, id, EventKind::kQuarantine, ViolationKind::kNone,
                    Errno::kOk);
  USK_TRACEPOINT("sup", "quarantine", static_cast<std::uint64_t>(id),
                 e.backoff_current);
  USK_KLOG_RATELIMIT_NAMED(
      "sup.quarantine", base::LogLevel::kWarn, 16u,
      "sup: extension %d ('%s') quarantined (%u violations in window); "
      "degrading to user-space, probe in %u invocations",
      id, e.name.c_str(), e.window_violations, e.backoff_current);
}

}  // namespace usk::sup
