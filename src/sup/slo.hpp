// SLO monitor: burn-rate windows over per-extension latency and errors.
//
// The breaker in supervisor.cpp reacts to hard violations -- faults,
// watchdog kills, quota overruns. But an extension can be perfectly
// "safe" and still ruin the service it was installed to speed up: a
// compound that suddenly takes 50x its budget, a consolidated call whose
// error rate creeps up under an injected fault. The SLO monitor closes
// that loop. Every finished kernel-path invocation reports its wall
// latency and success here (Supervisor::finish_invocation, after it
// drops its lock); the monitor buckets observations into fixed-count
// windows and scores each window against the extension's SLO policy. A
// run of `breach_windows` consecutive bad windows is a sustained burn,
// not noise, and raises ViolationKind::kSloBreach on the supervisor --
// from there the ordinary breaker machinery takes over: probation,
// quarantine, classic fallback, backoff probes, re-admission. Each
// extension's latencies also go into a log2 histogram the monitor owns;
// register_proc adds it to that Kernel's /proc/metrics as
// usk_ext_latency_ns{extension=...}, next to usk_slo_breaches_total, so
// the scrape shows the same percentiles this monitor judged. Both
// families and /sup/slo leave with the monitor.
//
// Locking: observe() takes slo mu_, releases it, and only then calls
// Supervisor::record_violation (slo.mu_ is never held across sup.mu_;
// the supervisor never calls the monitor while holding its own lock).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "sup/supervisor.hpp"
#include "trace/histogram.hpp"

namespace usk::sup {

/// Per-extension SLO. The defaults are deliberately loose: monitoring is
/// opt-in by setting a real latency threshold for the extension. A window
/// breaches when more than half its observations were bad (over the
/// threshold, or errors).
struct SloPolicy {
  std::uint64_t latency_threshold_ns = 0;  ///< 0 = latency not scored
  std::uint32_t window = 32;         ///< observations per window
  std::uint32_t breach_windows = 2;  ///< consecutive bad windows -> violation
};

struct SloState {
  std::uint64_t observed = 0;         ///< total observations
  std::uint64_t bad = 0;              ///< total bad observations
  std::uint64_t errors = 0;           ///< total failed invocations seen
  std::uint32_t window_count = 0;     ///< observations in current window
  std::uint32_t window_bad = 0;       ///< bad ones in current window
  std::uint32_t breach_streak = 0;    ///< consecutive breached windows
  std::uint64_t windows_breached = 0; ///< total breached windows
  std::uint64_t violations = 0;       ///< kSloBreach raised
};

class SloMonitor {
 public:
  /// Attaches to `s` (s.set_slo_monitor). One monitor per supervisor.
  explicit SloMonitor(Supervisor& s);
  ~SloMonitor();
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  void set_policy(const SloPolicy& p);            ///< default + existing
  void set_policy(ExtId id, const SloPolicy& p);  ///< one extension

  /// Score one finished kernel-path invocation. Called by the supervisor
  /// epilogue; tests call it directly to inject latency shapes.
  void observe(ExtId id, std::uint64_t wall_ns, bool ok);

  [[nodiscard]] SloPolicy policy(ExtId id) const;
  [[nodiscard]] SloState state(ExtId id) const;

  /// /proc/sup/slo body: one row per extension seen or configured.
  [[nodiscard]] std::string format() const;
  /// Adds /sup/slo and this monitor's two /metrics families to `pfs`,
  /// which must outlive the monitor, until the monitor is destroyed.
  /// EEXIST: another live monitor holds them there, and keeps them.
  Errno register_proc(fs::ProcFs& pfs);

  [[nodiscard]] Supervisor& supervisor() const { return s_; }

 private:
  struct Slot {
    SloPolicy policy;
    SloState state;
    bool touched = false;  ///< observed or configured at least once
    trace::Histogram latency;
  };

  Slot& slot_locked(ExtId id);
  /// (extension name, pick(slot)) per touched slot: a /metrics family.
  template <class Pick>
  auto rows(Pick pick) const;

  Supervisor& s_;
  SloPolicy default_policy_;
  mutable std::mutex mu_;
  std::deque<Slot> slots_;  ///< indexed by ExtId, grown on demand
  fs::ProcFs::Registration proc_;  ///< last: leaves before the state
};

}  // namespace usk::sup
