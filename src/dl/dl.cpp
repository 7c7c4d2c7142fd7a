#include "dl/dl.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "base/appendf.hpp"
#include "base/current.hpp"

namespace usk::dl {

namespace {

/// SplitMix64 for retry-budget jitter: a pure function of (seed, draw#)
/// so backoff schedules replay exactly from the tenant seed, like kfail
/// decisions replay from USK_FAIL_SPEC's seed.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

// --- Kdl ---------------------------------------------------------------------

namespace {

/// The counters /proc/dl/stats prints after `enabled` and `active`, in
/// order; reset() zeroes the same list.
struct NamedCounter {
  const char* name;
  std::atomic<std::uint64_t> DlStats::*field;
};
constexpr NamedCounter kCounters[] = {
    {"attached", &DlStats::attached},
    {"completed", &DlStats::completed},
    {"retired_expired", &DlStats::retired_expired},
    {"retired_canceled", &DlStats::retired_canceled},
    {"gateway_expired", &DlStats::gateway_expired},
    {"gateway_canceled", &DlStats::gateway_canceled},
    {"park_expired", &DlStats::park_expired},
    {"park_canceled", &DlStats::park_canceled},
    {"ring_aborts", &DlStats::ring_aborts},
    {"cosy_aborts", &DlStats::cosy_aborts},
    {"admits", &DlStats::admits},
    {"sheds", &DlStats::sheds},
    {"retries", &DlStats::retries},
    {"budget_exhausted", &DlStats::budget_exhausted},
    {"clock_skew_injected", &DlStats::clock_skew_injected},
    {"spurious_wakes", &DlStats::spurious_wakes},
};

}  // namespace

Kdl::Kdl(fault::Kfail& kfail) : kfail_(kfail) {
  if (const char* env = std::getenv("USK_DL");
      env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    set_enabled(true);
  }
}

Kdl::~Kdl() { set_enabled(false); }

void Kdl::set_enabled(bool on) {
  if (enabled_.exchange(on) != on) {
    detail::g_armed_kdls.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
  }
}

void Kdl::reset() {
  for (const NamedCounter& c : kCounters) {
    (stats_.*c.field).store(0, std::memory_order_relaxed);
  }
  stats_.active.store(0, std::memory_order_relaxed);
  service_hist_.reset();
}

Errno Kdl::fail_fast_armed(sched::Task* task, Site site) {
  Errno e = Errno::kOk;
  if (task != nullptr && task->cancel_pending()) {
    e = Errno::kECANCELED;
  } else if (const DeadlineScope* ds = base::current().deadline;
             ds != nullptr && ds->expired()) {
    e = Errno::kETIMEDOUT;
  } else {
    return e;
  }
  std::atomic<std::uint64_t>& n =
      site == Site::kRing   ? stats_.ring_aborts
      : site == Site::kCosy ? stats_.cosy_aborts
      : e == Errno::kECANCELED ? stats_.gateway_canceled
                               : stats_.gateway_expired;
  n.fetch_add(1, std::memory_order_relaxed);
  return e;
}

void Kdl::register_tenant(RetryBudget* t) {
  std::lock_guard lk(tenants_mu_);
  tenants_.push_back(t);
}

void Kdl::unregister_tenant(RetryBudget* t) {
  std::lock_guard lk(tenants_mu_);
  tenants_.erase(std::remove(tenants_.begin(), tenants_.end(), t),
                 tenants_.end());
}

std::string Kdl::format_stats() const {
  std::string out;
  auto add = [&out](const char* name, auto v) {
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  add("enabled", enabled() ? 1 : 0);
  add("active", stats_.active.load(std::memory_order_relaxed));
  for (const NamedCounter& c : kCounters) {
    add(c.name, (stats_.*c.field).load(std::memory_order_relaxed));
  }
  const trace::HistogramSnapshot h = service_hist_.snapshot();
  add("service_p50_ns", h.percentile(50));
  add("service_p99_ns", h.percentile(99));
  add("service_count", h.count);
  return out;
}

std::string Kdl::format_tenants() const {
  std::string out = "tenant budget streak retries exhausted successes\n";
  std::lock_guard lk(tenants_mu_);
  for (const RetryBudget* t : tenants_) {
    base::appendf(out, "%-12s %6u %6u %7llu %9llu %9llu\n",
                  t->name().c_str(), t->budget(), t->streak(),
                  static_cast<unsigned long long>(t->retries()),
                  static_cast<unsigned long long>(t->exhausted()),
                  static_cast<unsigned long long>(t->successes()));
  }
  return out;
}

// --- DeadlineScope -----------------------------------------------------------

DeadlineScope::DeadlineScope(Kdl& kdl, std::chrono::nanoseconds budget,
                             sched::Task* task, std::uint32_t tenant)
    : kdl_(kdl), armed_(kdl.enabled()) {
  if (!armed_) return;
  start_ = Clock::now();
  deadline_ = start_ + budget;
  task_ = task;
  tenant_ = tenant;
  prev_ = std::exchange(base::current().deadline, this);
  DlStats& st = kdl_.stats();
  st.attached.fetch_add(1, std::memory_order_relaxed);
  st.active.fetch_add(1, std::memory_order_relaxed);
}

DeadlineScope::~DeadlineScope() {
  if (!armed_) return;
  base::current().deadline = prev_;
  DlStats& st = kdl_.stats();
  st.active.fetch_sub(1, std::memory_order_relaxed);
  // The unwind is over: a pending cancel must not leak into the serving
  // thread's next request.
  bool was_canceled = false;
  if (task_ != nullptr && task_->cancel_pending()) {
    was_canceled = true;
    task_->set_cancel_pending(false);
  }
  // Retirement accounting only: the service histogram is fed by
  // Admission::depart (admitted requests), so shed or expired scopes --
  // which retire in microseconds -- cannot drag the admission estimate
  // toward zero and make it admit everything.
  Clock::time_point end = Clock::now();
  if (was_canceled) {
    st.retired_canceled.fetch_add(1, std::memory_order_relaxed);
  } else if (end >= deadline_) {
    st.retired_expired.fetch_add(1, std::memory_order_relaxed);
  } else {
    st.completed.fetch_add(1, std::memory_order_relaxed);
  }
}

std::int64_t DeadlineScope::remaining_ns() const {
  if (auto f = USK_FAIL_POINT_IN(kdl_.kfail().armed(),
                                 fault::Site::kDlClockSkew);
      f.fail) {
    // A skewed clock read lands past the deadline: the request expires
    // spuriously. Callers must unwind leak-free exactly as for a real
    // expiry -- that symmetry is what the soak checks.
    kdl_.stats().clock_skew_injected.fetch_add(1, std::memory_order_relaxed);
    return -1;
  } else if (f.transient) {
    // Recovered skew: the sanity re-read costs one extra now().
    (void)Clock::now();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(deadline_ -
                                                              Clock::now())
      .count();
}

// --- Admission ---------------------------------------------------------------

std::uint64_t Admission::service_estimate_ns() const {
  std::uint64_t est = est_ns_.load(std::memory_order_relaxed);
  return std::max(est, kMinServiceNs);
}

bool Admission::try_admit(std::int64_t remaining_ns) {
  DlStats& st = kdl_.stats();
  std::size_t cur = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= cfg_.max_inflight) break;
    // Feasibility: this request waits behind ~cur peers, then needs one
    // service time itself. If that already exceeds its remaining budget,
    // serving it buys a late answer at full kernel cost -- shed now,
    // while the only thing invested is one accept.
    std::uint64_t est = service_estimate_ns();
    std::uint64_t queue_delay = est * (static_cast<std::uint64_t>(cur) + 1);
    if (remaining_ns <= 0 ||
        queue_delay > static_cast<std::uint64_t>(remaining_ns)) {
      break;
    }
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      st.admits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  st.sheds.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Admission::depart(std::uint64_t service_ns) {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  kdl_.service_hist().record(service_ns);
  // Refresh the cached percentile off the per-request path: snapshotting
  // 44 buckets every departure would put a loop in the serving loop.
  std::uint64_t n = departs_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % 32 == 1) {
    est_ns_.store(
        kdl_.service_hist().snapshot().percentile(cfg_.percentile),
        std::memory_order_relaxed);
  }
}

// --- RetryBudget -------------------------------------------------------------

RetryBudget::RetryBudget(Kdl& kdl, std::string name, RetryBudgetConfig cfg)
    : kdl_(kdl), name_(std::move(name)), cfg_(cfg) {
  kdl_.register_tenant(this);
}

RetryBudget::~RetryBudget() { kdl_.unregister_tenant(this); }

RetryBudget::Decision RetryBudget::on_reject() {
  std::uint32_t streak = streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak > cfg_.budget) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    kdl_.stats().budget_exhausted.fetch_add(1, std::memory_order_relaxed);
    streak_.store(0, std::memory_order_relaxed);  // next request starts fresh
    return {false, 0};
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
  kdl_.stats().retries.fetch_add(1, std::memory_order_relaxed);
  // Exponential backoff with full deterministic jitter: uniform in
  // (cap/2, cap] where cap doubles per consecutive reject. Jitter
  // decorrelates tenants that were rejected in the same shed burst so
  // their retries do not arrive as a synchronized second burst.
  double cap = static_cast<double>(cfg_.base_backoff_ns);
  for (std::uint32_t i = 1; i < streak; ++i) cap *= cfg_.multiplier;
  cap = std::min(cap, static_cast<double>(cfg_.max_backoff_ns));
  std::uint64_t draw = draws_.fetch_add(1, std::memory_order_relaxed);
  double u = static_cast<double>(splitmix64(cfg_.seed ^ draw) >> 11) *
             (1.0 / 9007199254740992.0);
  auto backoff = static_cast<std::uint64_t>(cap * (0.5 + 0.5 * u));
  return {true, backoff};
}

void RetryBudget::on_success() {
  successes_.fetch_add(1, std::memory_order_relaxed);
  streak_.store(0, std::memory_order_relaxed);
}

}  // namespace usk::dl
