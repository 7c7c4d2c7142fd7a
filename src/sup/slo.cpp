#include "sup/slo.hpp"

#include <utility>
#include <vector>

#include "base/appendf.hpp"
#include "base/klog.hpp"
#include "fs/procfs.hpp"
#include "trace/tracepoint.hpp"

namespace usk::sup {

using base::appendf;

/// A window breaches when more than this share of its observations were bad.
constexpr double kMaxBreachFraction = 0.5;

SloMonitor::SloMonitor(Supervisor& s) : s_(s) {
  s_.set_slo_monitor(this);
}

SloMonitor::~SloMonitor() { s_.set_slo_monitor(nullptr); }

SloMonitor::Slot& SloMonitor::slot_locked(ExtId id) {
  const auto idx = static_cast<std::size_t>(id);
  while (slots_.size() <= idx) slots_.emplace_back();
  Slot& sl = slots_[idx];
  if (!sl.touched) {
    sl.policy = default_policy_;
    sl.touched = true;
  }
  return sl;
}

void SloMonitor::set_policy(const SloPolicy& p) {
  std::lock_guard lk(mu_);
  default_policy_ = p;
  for (Slot& sl : slots_) {
    if (sl.touched) sl.policy = p;
  }
}

void SloMonitor::set_policy(ExtId id, const SloPolicy& p) {
  std::lock_guard lk(mu_);
  slot_locked(id).policy = p;
}

void SloMonitor::observe(ExtId id, std::uint64_t wall_ns, bool ok) {
  bool raise = false;
  {
    std::lock_guard lk(mu_);
    Slot& sl = slot_locked(id);
    sl.latency.record(wall_ns);
    ++sl.state.observed;
    if (!ok) ++sl.state.errors;
    const SloPolicy& p = sl.policy;
    const bool bad = (p.latency_threshold_ns != 0 &&
                      wall_ns > p.latency_threshold_ns) ||
                     !ok;
    if (bad) ++sl.state.bad;
    ++sl.state.window_count;
    if (bad) ++sl.state.window_bad;
    if (sl.state.window_count >= p.window) {
      const bool breached =
          static_cast<double>(sl.state.window_bad) >
          kMaxBreachFraction * static_cast<double>(sl.state.window_count);
      sl.state.window_count = 0;
      sl.state.window_bad = 0;
      if (breached) {
        ++sl.state.windows_breached;
        if (++sl.state.breach_streak >= p.breach_windows) {
          sl.state.breach_streak = 0;
          ++sl.state.violations;
          raise = true;
        }
      } else {
        sl.state.breach_streak = 0;
      }
    }
  }
  if (!raise) return;
  // Outside mu_: record_violation takes the supervisor lock, and the
  // breaker can quarantine right here.
  USK_TRACEPOINT_TO(s_.kernel().ktrace().armed(), "sup", "slo_breach",
                    static_cast<std::uint64_t>(id));
  USK_KLOG_RATELIMIT_NAMED(
      "sup.slo", base::LogLevel::kWarn, 16u,
      "sup: extension %d sustained SLO burn (latency/error windows); "
      "raising slo-breach on the breaker",
      id);
  s_.record_violation(id, ViolationKind::kSloBreach, Errno::kETIME);
}

SloPolicy SloMonitor::policy(ExtId id) const {
  std::lock_guard lk(mu_);
  const auto idx = static_cast<std::size_t>(id);
  if (idx < slots_.size() && slots_[idx].touched) {
    return slots_[idx].policy;
  }
  return default_policy_;
}

SloState SloMonitor::state(ExtId id) const {
  std::lock_guard lk(mu_);
  const auto idx = static_cast<std::size_t>(id);
  if (idx < slots_.size()) return slots_[idx].state;
  return SloState{};
}

std::string SloMonitor::format() const {
  struct Row {
    ExtId id;
    SloPolicy p;
    SloState st;
  };
  std::vector<Row> rows;
  {
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].touched) continue;
      rows.push_back(Row{static_cast<ExtId>(i), slots_[i].policy,
                         slots_[i].state});
    }
  }
  std::string out;
  appendf(out,
          "# id name threshold_ns window frac streak_need observed bad "
          "errors windows_breached streak violations\n");
  for (const Row& r : rows) {
    const std::string name = s_.extension_name(r.id);
    appendf(out, "%d %s %llu %u %.2f %u %llu %llu %llu %llu %u %llu\n",
            r.id, name.c_str(),
            static_cast<unsigned long long>(r.p.latency_threshold_ns),
            r.p.window, kMaxBreachFraction, r.p.breach_windows,
            static_cast<unsigned long long>(r.st.observed),
            static_cast<unsigned long long>(r.st.bad),
            static_cast<unsigned long long>(r.st.errors),
            static_cast<unsigned long long>(r.st.windows_breached),
            r.st.breach_streak,
            static_cast<unsigned long long>(r.st.violations));
  }
  return out;
}

template <class Pick>
auto SloMonitor::rows(Pick pick) const {
  using V = decltype(pick(std::declval<const Slot&>()));
  std::vector<std::pair<ExtId, V>> picked;
  {
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].touched) {
        picked.emplace_back(static_cast<ExtId>(i), pick(slots_[i]));
      }
    }
  }
  // Names outside mu_: extension_name takes the supervisor lock.
  fs::ProcFs::Rows<V> out;
  for (auto& [id, v] : picked) {
    out.emplace_back(s_.extension_name(id), std::move(v));
  }
  return out;
}

Errno SloMonitor::register_proc(fs::ProcFs& pfs) {
  proc_ = fs::ProcFs::Registration(pfs);
  proc_.add_file("/sup/slo", [this] { return format(); });
  proc_.add_summary("usk_ext_latency_ns", "supervised invocation wall latency",
                    "extension", [this] {
                      return rows([](const Slot& sl) {
                        return sl.latency.snapshot();
                      });
                    });
  proc_.add_gauges("usk_slo_breaches_total",
                   "sustained SLO burns raised on ksup", "extension", [this] {
                     return rows([](const Slot& sl) {
                       return static_cast<std::int64_t>(sl.state.violations);
                     });
                   });
  return proc_.status();
}

}  // namespace usk::sup
