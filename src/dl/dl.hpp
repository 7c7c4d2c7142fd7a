// kdl: end-to-end request deadlines, cooperative cancellation, and
// admission control under overload.
//
// The paper's crossing elimination makes the kernel-resident serving
// path cheap; kdl makes it *safe to saturate*. Three pieces:
//
//  1. Deadline propagation. A request picks up a dl::DeadlineScope at
//     ingress (webserver accept, ring chain submission, Cosy compound
//     entry). The scope rides the same thread-local mechanism as kspan
//     (trace::SpanScope): synchronous kernel work on the serving thread
//     sees it for free, with zero per-request allocation. The syscall
//     gateway (uk::Kernel::Scope), ring chains and Cosy compounds check
//     it through Kdl::fail_fast, and every blocking vehicle parks
//     through uk::Kernel::park, which the deadline bounds; an expired
//     request fails fast with ETIMEDOUT instead of consuming kernel
//     units it can no longer convert into goodput.
//
//  2. Cooperative cancellation. Scheduler::cancel(task) reuses PR 9's
//     kill/parked_on seq_cst handshake but leaves the task schedulable:
//     the flag unwinds the request through the same error paths a hard
//     failure would take (ring chain cancel cascade + fd rollback, Cosy
//     between-op abort, socket/epoll ECANCELED), so every resource the
//     request held is released by code that already existed and is
//     already tested. The DeadlineScope destructor clears the flag once
//     the unwind reaches ingress.
//
//  3. Admission control. dl::Admission bounds inflight requests and
//     sheds at ingress when the *estimated* queue delay -- inflight x a
//     percentile of the served-latency log2 histogram (the same
//     eBPF-style histogram ktrace uses) -- already exceeds the arriving
//     request's deadline budget. Clients hold per-tenant RetryBudgets
//     (exponential backoff, deterministic jitter); an exhausted budget
//     is the ksup hook that trips the tenant's breaker.
//
// Per-Kernel: every uk::Kernel owns one Kdl (Kernel::dl()) -- its arming
// flag, stats, tenant list and admission service histogram -- so arming
// kdl on one Kernel (echo 1 > /proc/dl/enable) leaves every other Kernel
// in the process untouched.
//
// Disarmed discipline (matches kspan/kfail/ksup): with kdl disabled,
// the gateway check is ONE relaxed atomic load and a predicted branch;
// DeadlineScope construction never touches the clock. bench_overload
// measures this against a null syscall (acceptance: <= 1%).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/errno.hpp"
#include "fault/kfail.hpp"
#include "sched/task.hpp"
#include "trace/histogram.hpp"

namespace usk::dl {

using Clock = std::chrono::steady_clock;

namespace detail {
/// Enabled Kdls in this process. A report for bench headers only: no
/// kernel path reads it.
inline std::atomic<int> g_armed_kdls{0};
}  // namespace detail

/// True while some Kernel in this process has kdl enabled (bench headers
/// refuse to measure an armed build). Each Kernel gates on its own
/// Kdl::enabled().
inline bool dl_enabled() {
  return detail::g_armed_kdls.load(std::memory_order_relaxed) != 0;
}

/// One Kernel's kdl accounting, reported via /proc/dl and /proc/metrics.
struct DlStats {
  // Request lifecycle (DeadlineScope attach/retire).
  std::atomic<std::uint64_t> attached{0};
  std::atomic<std::uint64_t> completed{0};  ///< retired unexpired+uncanceled
  std::atomic<std::uint64_t> retired_expired{0};
  std::atomic<std::uint64_t> retired_canceled{0};
  std::atomic<std::int64_t> active{0};  ///< live DeadlineScopes

  // Fail-fast exits, by site.
  std::atomic<std::uint64_t> gateway_expired{0};   ///< Scope gate ETIMEDOUT
  std::atomic<std::uint64_t> gateway_canceled{0};  ///< Scope gate ECANCELED
  std::atomic<std::uint64_t> park_expired{0};      ///< park ETIMEDOUT
  std::atomic<std::uint64_t> park_canceled{0};     ///< park ECANCELED
  std::atomic<std::uint64_t> ring_aborts{0};  ///< chain cancel-on-deadline
  std::atomic<std::uint64_t> cosy_aborts{0};  ///< between-op compound abort

  // Admission.
  std::atomic<std::uint64_t> admits{0};
  std::atomic<std::uint64_t> sheds{0};

  // Client-side backpressure (sum over tenants).
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> budget_exhausted{0};

  // Fault injection observed by kdl.
  std::atomic<std::uint64_t> clock_skew_injected{0};
  std::atomic<std::uint64_t> spurious_wakes{0};
};

class RetryBudget;

/// One Kernel's kdl state: the arming flag, stats, the served-latency
/// histogram feeding admission estimates, and the tenant registry behind
/// /proc/dl/tenants. Built armed when USK_DL is set (non-empty, not "0").
class Kdl {
 public:
  Kdl();
  ~Kdl();
  Kdl(const Kdl&) = delete;
  Kdl& operator=(const Kdl&) = delete;

  void set_enabled(bool on);
  /// One relaxed load: the only cost kdl adds to a disarmed kernel.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Where a request is failed fast; picks the counter fail_fast ticks.
  enum class Site : std::uint8_t {
    kGateway,  ///< Kernel::Scope: gateway_expired / gateway_canceled
    kRing,     ///< between ring SQEs: ring_aborts
    kCosy,     ///< between Cosy ops: cosy_aborts
  };

  /// The one fail-fast check: with kdl enabled, a pending cancel ->
  /// ECANCELED, an expired current DeadlineScope -> ETIMEDOUT (cancel
  /// outranks expiry: the canceler asked for a deterministic ECANCELED),
  /// ticking `site`'s counter; else kOk. Disabled, one relaxed load.
  [[nodiscard]] Errno fail_fast(sched::Task* task, Site site) {
    return enabled() ? fail_fast_armed(task, site) : Errno::kOk;
  }

  DlStats& stats() { return stats_; }
  [[nodiscard]] const DlStats& stats() const { return stats_; }

  /// Wall latency of retired admitted requests (ns). Admission reads a
  /// percentile of this to estimate queue delay at ingress.
  trace::Histogram& service_hist() { return service_hist_; }

  /// Zero stats and the service histogram (tests, /proc reset write).
  void reset();

  // Tenant registry (RetryBudget self-registers for /proc rendering).
  void register_tenant(RetryBudget* t);
  void unregister_tenant(RetryBudget* t);

  /// /proc/dl/stats and /proc/dl/tenants bodies.
  [[nodiscard]] std::string format_stats() const;
  [[nodiscard]] std::string format_tenants() const;

 private:
  Errno fail_fast_armed(sched::Task* task, Site site);

  std::atomic<bool> enabled_{false};
  DlStats stats_;
  trace::Histogram service_hist_;
  mutable std::mutex tenants_mu_;
  std::vector<RetryBudget*> tenants_;
};

/// RAII per-request deadline, stacked on a thread-local exactly like
/// trace::SpanScope. Construct at ingress with the Kdl it reports to
/// (the serving Kernel's), the request's budget and the serving Task
/// (nullable for non-task contexts); nested scopes shadow the outer one
/// (a sub-operation may run under a tighter deadline). When that Kdl is
/// disabled at construction the scope is inert: no clock read, no stack
/// push, no destructor work.
class DeadlineScope {
 public:
  DeadlineScope(Kdl& kdl, std::chrono::nanoseconds budget,
                sched::Task* task = nullptr, std::uint32_t tenant = 0);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// Innermost live scope on this thread (nullptr when none / disabled).
  static DeadlineScope* current();

  [[nodiscard]] Clock::time_point deadline() const { return deadline_; }
  [[nodiscard]] sched::Task* task() const { return task_; }
  [[nodiscard]] std::uint32_t tenant() const { return tenant_; }

  /// Nanoseconds until expiry (negative once past). kfail dl.clock_skew
  /// injects here: a hard fire reads a skewed clock that is already past
  /// the deadline.
  [[nodiscard]] std::int64_t remaining_ns() const;
  [[nodiscard]] bool expired() const { return remaining_ns() <= 0; }
  [[nodiscard]] bool canceled() const {
    return task_ != nullptr && task_->cancel_pending();
  }

 private:
  Kdl& kdl_;
  bool armed_;
  DeadlineScope* prev_ = nullptr;
  Clock::time_point start_{};
  Clock::time_point deadline_{};
  sched::Task* task_ = nullptr;
  std::uint32_t tenant_ = 0;
};

/// Bounded, feasibility-checked ingress admission. One instance per
/// serving pool (the workload owns it); counters roll up into its Kdl.
struct AdmissionConfig {
  std::size_t max_inflight = 64;  ///< hard inflight bound
  double percentile = 90.0;       ///< service-estimate percentile
  std::uint64_t min_service_ns = 1000;  ///< estimate floor (cold hist)
};

class Admission {
 public:
  explicit Admission(Kdl& kdl, AdmissionConfig cfg = {})
      : kdl_(kdl), cfg_(cfg) {}

  /// Admit a request with `remaining_ns` of deadline budget left.
  /// Sheds (returns false) when the inflight bound is hit or the
  /// estimated queue delay -- (inflight + 1) x service estimate --
  /// already exceeds the budget: serving it would only produce a late
  /// response that still costs kernel units.
  bool try_admit(std::int64_t remaining_ns);

  /// Retire an admitted request that took `service_ns` end to end.
  void depart(std::uint64_t service_ns);

  [[nodiscard]] std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t service_estimate_ns() const;

 private:
  Kdl& kdl_;
  AdmissionConfig cfg_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> est_ns_{0};    ///< cached percentile
  std::atomic<std::uint64_t> departs_{0};   ///< refresh cadence counter
};

/// Client-side per-tenant retry budget: exponential backoff with
/// deterministic (seeded) jitter, a bounded number of consecutive
/// retries, and counters a supervisor hook can act on. The loadgen calls
/// on_reject() for every shed/expired response; `retry == false` means
/// the budget is exhausted -- drop the request and report the tenant
/// (workload wires this to sup::Supervisor::record_violation, tripping
/// the tenant's breaker).
struct RetryBudgetConfig {
  std::uint32_t budget = 3;  ///< max consecutive retries per request
  std::uint64_t base_backoff_ns = 200'000;
  double multiplier = 2.0;
  std::uint64_t max_backoff_ns = 10'000'000;
  std::uint64_t seed = 1;  ///< jitter stream seed (deterministic)
};

class RetryBudget {
 public:
  struct Decision {
    bool retry = false;
    std::uint64_t backoff_ns = 0;
  };

  RetryBudget(Kdl& kdl, std::string name, RetryBudgetConfig cfg = {});
  ~RetryBudget();

  RetryBudget(const RetryBudget&) = delete;
  RetryBudget& operator=(const RetryBudget&) = delete;

  /// A request attempt was shed or expired. Spends one budget token:
  /// retry=true with the jittered backoff while tokens remain, else
  /// retry=false (budget exhausted; caller drops and reports).
  Decision on_reject();

  /// A request attempt succeeded: the consecutive-failure streak resets.
  void on_success();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t budget() const { return cfg_.budget; }
  [[nodiscard]] std::uint32_t streak() const {
    return streak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t successes() const {
    return successes_.load(std::memory_order_relaxed);
  }

 private:
  Kdl& kdl_;
  std::string name_;
  RetryBudgetConfig cfg_;
  std::atomic<std::uint32_t> streak_{0};  ///< consecutive rejects
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> exhausted_{0};
  std::atomic<std::uint64_t> successes_{0};
  std::atomic<std::uint64_t> draws_{0};  ///< jitter stream position
};

}  // namespace usk::dl
