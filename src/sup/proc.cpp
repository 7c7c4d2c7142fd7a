// /proc/sup: the supervisor's observation surface.
//
//   /sup/extensions  one line per extension: health, counters, backoff
//   /sup/quotas      the configured caps (0 = unlimited)
//   /sup/events      the bounded transition ledger, oldest first
//
// Render-on-open like /net/*: each open snapshots state under the
// supervisor lock and formats outside it.
#include <algorithm>
#include <cstdio>
#include <string_view>

#include "base/appendf.hpp"
#include "fs/procfs.hpp"
#include "sup/supervisor.hpp"

namespace usk::sup {

using base::appendf;

std::string Supervisor::format_extensions() const {
  struct Row {
    std::string name;
    Vehicle vehicle;
    Health health;
    std::uint32_t backoff_remaining;
    std::uint32_t backoff_current;
    ExtStats st;
  };
  std::vector<Row> rows;
  {
    std::lock_guard lk(mu_);
    rows.reserve(exts_.size());
    for (const Ext& e : exts_) {
      rows.push_back(Row{e.name, e.vehicle, e.health, e.backoff_remaining,
                         e.backoff_current, e.stats});
    }
  }
  std::string out;
  appendf(out,
          "# id name vehicle health invocations kernel fallback probes "
          "failed_probes violations quota_overruns quarantines readmissions "
          "reisolations backoff\n");
  int id = 0;
  for (const Row& r : rows) {
    appendf(out,
            "%d %s %s %s %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
            "%u/%u\n",
            id++, r.name.c_str(), vehicle_name(r.vehicle),
            health_name(r.health),
            static_cast<unsigned long long>(r.st.invocations),
            static_cast<unsigned long long>(r.st.kernel_runs),
            static_cast<unsigned long long>(r.st.fallback_runs),
            static_cast<unsigned long long>(r.st.probes),
            static_cast<unsigned long long>(r.st.failed_probes),
            static_cast<unsigned long long>(r.st.violations),
            static_cast<unsigned long long>(r.st.quota_overruns),
            static_cast<unsigned long long>(r.st.quarantines),
            static_cast<unsigned long long>(r.st.readmissions),
            static_cast<unsigned long long>(r.st.reisolations),
            r.backoff_remaining, r.backoff_current);
  }
  return out;
}

std::string Supervisor::format_quotas() const {
  struct Row {
    std::string name;
    Quota q;
    std::uint64_t units_total;
    std::uint64_t window_units;
  };
  std::vector<Row> rows;
  {
    std::lock_guard lk(mu_);
    rows.reserve(exts_.size());
    for (const Ext& e : exts_) {
      rows.push_back(Row{e.name, e.quota, e.stats.units_total,
                         e.window_units});
    }
  }
  std::string out;
  appendf(out,
          "# id name inv_units window_units inv_kmalloc inv_fds inv_fuel "
          "inv_dirty units_total window_used\n");
  int id = 0;
  for (const Row& r : rows) {
    appendf(out, "%d %s %llu %llu %llu %u %llu %llu %llu %llu\n", id++,
            r.name.c_str(),
            static_cast<unsigned long long>(r.q.invocation_units),
            static_cast<unsigned long long>(r.q.window_units),
            static_cast<unsigned long long>(r.q.invocation_kmalloc),
            r.q.invocation_fds,
            static_cast<unsigned long long>(r.q.invocation_fuel),
            static_cast<unsigned long long>(r.q.invocation_dirty),
            static_cast<unsigned long long>(r.units_total),
            static_cast<unsigned long long>(r.window_units));
  }
  return out;
}

std::string Supervisor::format_events() const {
  std::vector<SupEvent> evs = events();
  std::vector<std::string> names;
  {
    std::lock_guard lk(mu_);
    names.reserve(exts_.size());
    for (const Ext& e : exts_) names.push_back(e.name);
  }
  std::string out;
  appendf(out, "# seq ext name event violation errno invocation\n");
  for (const SupEvent& e : evs) {
    const char* name =
        e.ext >= 0 && static_cast<std::size_t>(e.ext) < names.size()
            ? names[static_cast<std::size_t>(e.ext)].c_str()
            : "?";
    const std::string_view en = errno_name(e.err);
    appendf(out, "%llu %d %s %s %s %.*s %llu\n",
            static_cast<unsigned long long>(e.seq), e.ext, name,
            event_name(e.kind), violation_name(e.vkind),
            static_cast<int>(en.size()), en.data(),
            static_cast<unsigned long long>(e.invocation));
  }
  return out;
}

void Supervisor::register_proc(fs::ProcFs& pfs) {
  pfs.add_dir("/sup");
  pfs.add_file("/sup/extensions", [this] { return format_extensions(); });
  pfs.add_file("/sup/quotas", [this] { return format_quotas(); });
  pfs.add_file("/sup/events", [this] { return format_events(); });
}

}  // namespace usk::sup
