// Supervised evmon rule monitors.
//
// A rule monitor (evmon §3-style invariant checker) is in-kernel user
// logic too: a buggy or noisy monitor burns kernel time and floods the
// log on every event. SupervisedMonitor wraps one behind the supervisor:
//
//   * healthy/probation -- events flow to the inner monitor in the
//     kernel; each newly reported anomaly counts as a violation (a noisy
//     monitor trips the breaker like any misbehaving extension).
//   * quarantined -- events are NOT run through the monitor in the
//     kernel; they are deferred to a user-space log (take_deferred())
//     for offline analysis, so the invariant data is kept while the
//     kernel stops paying for the monitor.
//   * probes -- when the backoff expires, one event is fed under full
//     instrumentation; clean probes walk the monitor back to healthy.
//
// feed() is the one supervised entry point that does not go through
// Supervisor::invoke: a monitor has no task and makes no syscalls, and
// its "fallback" is only a deferral -- there is no classic form to run,
// no span to open and no kfail site to pass.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "evmon/event.hpp"
#include "evmon/monitors.hpp"
#include "sup/supervisor.hpp"

namespace usk::sup {

class SupervisedMonitor {
 public:
  SupervisedMonitor(Supervisor& s, std::string name,
                    evmon::MonitorBase& inner, Quota quota = Quota{})
      : s_(s), inner_(inner),
        id_(s.register_extension(std::move(name), Vehicle::kMonitor,
                                 quota)) {}

  /// Feed one event through the supervisor's routing.
  void feed(const evmon::Event& e) {
    const Route r = s_.route(id_);
    SysRet ret = 0;
    InvocationGuard g(s_, id_, nullptr, r, &ret);
    if (r == Route::kFallback) {
      deferred_.push_back(e);
      return;
    }
    const std::size_t before = inner_.anomalies().size();
    inner_.feed(e);
    if (inner_.anomalies().size() > before) {
      // The monitor fired: in this harness that's the supervised
      // extension misbehaving (noisy monitor), so it drives the breaker.
      g.force_kind(ViolationKind::kMonitorAnomaly);
      ret = sysret_err(Errno::kEFAULT);
      g.set_result(ret);
    }
  }

  /// Events deferred to user space while quarantined; clears the log.
  [[nodiscard]] std::vector<evmon::Event> take_deferred() {
    return std::exchange(deferred_, {});
  }
  [[nodiscard]] std::size_t deferred_count() const {
    return deferred_.size();
  }

  [[nodiscard]] ExtId ext() const { return id_; }
  [[nodiscard]] evmon::MonitorBase& inner() { return inner_; }

 private:
  Supervisor& s_;
  evmon::MonitorBase& inner_;
  ExtId id_;
  std::vector<evmon::Event> deferred_;
};

}  // namespace usk::sup
