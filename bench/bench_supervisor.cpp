// R2: supervised web server -- quarantine, degradation, re-admission.
//
// The N1 web server runs in Cosy mode (one compound per connection) with
// every worker's serving path registered under the extension supervisor.
// kfail injects HARD EDQUOT faults at the compound's fuel check
// (cosy_fuel, non-transient) at rates rising 0 -> 5%: each hit aborts the
// in-kernel invocation, the worker rescues the connection with the
// classic user-space loop, and the breaker walks the extension through
// probation -> quarantine -> backoff fallback -> probe -> re-admission.
// The acceptance claims measured here:
//
//   1. 100% of requests complete at every injection rate (graceful
//      degradation: quarantine re-routes, it never drops work).
//   2. The supervised server at p=0.05 still beats the pure-classic
//      (kPlain) baseline: degraded connections cost classic price, but
//      re-admitted ones keep the consolidation win.
//   3. The injection schedule and the breaker are deterministic: two
//      runs with the same seed produce byte-identical event ledgers.
//   4. The healthy-path cost every syscall on an unsupervised Kernel
//      pays -- the relaxed load of the Kernel's subscriber armed word in
//      the Scope epilogue -- is <= 0.5% of a null syscall under the
//      default cost model, timed in the same run.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench/common.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "sup/supervisor.hpp"
#include "uk/userlib.hpp"
#include "workload/webserver.hpp"

namespace {

using namespace usk;

struct SupPoint {
  double rate = 0.0;
  workload::WebServerReport rep;
  sup::ExtStats ext;           ///< summed over registered extensions
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
  std::string ledger;          ///< serialized event stream (determinism)
};

workload::WebServerConfig storm_config(bool quick) {
  workload::WebServerConfig cfg;
  cfg.mode = workload::ServeMode::kCosy;
  cfg.workers = 1;  // single worker: the breaker story in one timeline
  cfg.conns_per_worker = quick ? 16 : 64;
  cfg.requests_per_conn = quick ? 4 : 8;
  cfg.file_bytes = 4096;
  cfg.files = 4;
  cfg.base_port = 8400;
  return cfg;
}

/// Aggressive breaker so the 0->5% sweep exercises every state: one
/// violation starts probation, a second quarantines, two fallback ticks
/// then a probe, two clean runs re-admit.
sup::BreakerPolicy storm_policy() {
  sup::BreakerPolicy p;
  p.violation_threshold = 1;
  p.window_invocations = 16;
  p.probation_clean_runs = 2;
  p.backoff_initial = 2;
  p.backoff_multiplier = 2;
  p.backoff_cap = 8;
  return p;
}

/// Serialize everything the breaker decided: if two same-seed runs agree
/// on this string, routing / quarantine / re-admission replayed exactly.
std::string event_ledger(const sup::Supervisor& s) {
  std::string out;
  char line[128];
  for (const sup::SupEvent& e : s.events()) {
    std::snprintf(line, sizeof line, "%" PRIu64 ":%d:%s:%s:%d@%" PRIu64 ";",
                  e.seq, e.ext, sup::event_name(e.kind),
                  sup::violation_name(e.vkind), static_cast<int>(e.err),
                  e.invocation);
    out += line;
  }
  return out;
}

SupPoint run_supervised(double rate, bool quick) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);

  sup::Supervisor s(kernel);
  s.set_policy(storm_policy());

  workload::WebServerConfig cfg = storm_config(quick);
  cfg.supervisor = &s;
  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);

  char spec[128];
  if (rate > 0.0) {
    // HARD faults (no :transient): the compound really aborts with
    // EDQUOT and the supervisor must route around it.
    std::snprintf(spec, sizeof spec, "seed=17,cosy_fuel:p=%g", rate);
  } else {
    std::snprintf(spec, sizeof spec, "off");
  }
  if (!kernel.kfail().apply_spec(spec).ok()) {
    std::fprintf(stderr, "bad spec: %s\n", spec);
    std::exit(1);
  }

  SupPoint pt;
  pt.rate = rate;
  pt.rep = workload::run_webserver(kernel, net, cfg);
  for (std::size_t id = 0; id < s.extension_count(); ++id) {
    sup::ExtStats st = s.stats(static_cast<sup::ExtId>(id));
    pt.ext.invocations += st.invocations;
    pt.ext.kernel_runs += st.kernel_runs;
    pt.ext.fallback_runs += st.fallback_runs;
    pt.ext.probes += st.probes;
    pt.ext.failed_probes += st.failed_probes;
    pt.ext.violations += st.violations;
    pt.quarantines += st.quarantines;
    pt.readmissions += st.readmissions;
  }
  pt.ledger = event_ledger(s);
  return pt;
}

/// Pure-classic baseline: the same request mix served by the kPlain
/// per-request syscall loop, no supervisor, no faults. This is what the
/// degraded path costs when it is ALL you have.
workload::WebServerReport run_classic(bool quick) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);

  workload::WebServerConfig cfg = storm_config(quick);
  cfg.mode = workload::ServeMode::kPlain;
  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);
  return workload::run_webserver(kernel, net, cfg);
}

/// The cost every syscall on an unsupervised Kernel pays for the
/// supervisor being possible: the one relaxed load of the Kernel's
/// subscriber armed word in the Kernel::Scope epilogue. Measured like
/// R1's disarmed fault point and T1's disabled tracepoint.
double gateway_check_ns() {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  const int kChecks = 50'000'000;
  static volatile std::uint64_t sink;
  double secs = bench::time_best(3, [&] {
    std::uint64_t armed = 0;
    for (int i = 0; i < kChecks; ++i) {
      armed += kernel.has_subscribers() ? 1 : 0;
    }
    sink = armed;
  });
  (void)sink;
  return secs / kChecks * 1e9;
}

/// Null-syscall throughput with and without a supervisor on the Kernel
/// and a healthy guard bound to the calling thread (subscription +
/// per-syscall attribution): the full healthy-path cost for SUPERVISED
/// code, reported for context.
double getpid_ops_per_sec(bool supervised) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "nuller");
  std::optional<sup::Supervisor> s;
  sup::ExtId id = 0;
  if (supervised) {
    s.emplace(kernel);
    id = s->register_extension("nuller", sup::Vehicle::kCosy);
  }
  const int kOps = 200000;
  double secs = bench::time_best(3, [&] {
    std::optional<sup::InvocationGuard> g;
    if (s) g.emplace(*s, id, nullptr, sup::Route::kKernel);
    for (int i = 0; i < kOps; ++i) (void)proc.getpid();
    if (g) g->set_result(0);
  });
  return static_cast<double>(kOps) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("R2", "supervised web server under a hard-fault storm "
                           "(quarantine -> fallback -> re-admission)");
  bench::print_note("cosy mode, 1 worker, hard EDQUOT at the compound fuel "
                    "check; seed=17: the breaker's event ledger reproduces "
                    "byte-for-byte.");

  bench::JsonWriter json("bench_supervisor");
  const double rates[] = {0.0, 0.01, 0.02, 0.05};
  const int reps = quick ? 1 : 3;
  workload::WebServerConfig shape = storm_config(quick);
  const std::uint64_t expect_reqs =
      static_cast<std::uint64_t>(shape.workers) * shape.conns_per_worker *
      shape.requests_per_conn;

  std::printf("\n%-12s %7s %9s %6s %9s %7s %6s %6s %7s\n", "config", "reqs",
              "req/s", "viol", "fallback", "probes", "quar", "readm",
              "vs clean");
  double clean_rps = 0.0;
  double storm5_rps = 0.0;
  bool all_complete = true;
  bool deterministic = true;
  std::uint64_t quarantines_at_5 = 0;
  std::uint64_t readmissions_at_5 = 0;
  for (double rate : rates) {
    SupPoint pt = run_supervised(rate, quick);
    // Same seed -> same injection schedule -> same breaker decisions;
    // repeats only strip host-scheduler noise from the wall clock.
    for (int r = 1; r < reps; ++r) {
      SupPoint again = run_supervised(rate, quick);
      if (again.ledger != pt.ledger) deterministic = false;
      if (again.rep.req_per_sec > pt.rep.req_per_sec) {
        again.ledger = pt.ledger;  // already compared equal unless flagged
        pt = again;
      }
    }
    if (rate == 0.0) clean_rps = pt.rep.req_per_sec;
    if (rate == 0.05) {
      storm5_rps = pt.rep.req_per_sec;
      quarantines_at_5 = pt.quarantines;
      readmissions_at_5 = pt.readmissions;
    }
    if (pt.rep.requests != expect_reqs) all_complete = false;
    double ratio =
        clean_rps > 0 ? pt.rep.req_per_sec / clean_rps * 100.0 : 100.0;
    char cfgname[32];
    std::snprintf(cfgname, sizeof cfgname, "storm-p%.3f", rate);
    std::printf("%-12s %7" PRIu64 " %9.0f %6" PRIu64 " %9" PRIu64
                " %7" PRIu64 " %6" PRIu64 " %6" PRIu64 " %6.1f%%\n",
                cfgname, pt.rep.requests, pt.rep.req_per_sec,
                pt.ext.violations, pt.ext.fallback_runs, pt.ext.probes,
                pt.quarantines, pt.readmissions, ratio);
    json.record(cfgname, pt.rep.req_per_sec, "ops/s", bench::Better::kHigher);
  }

  workload::WebServerReport classic = run_classic(quick);
  for (int r = 1; r < reps; ++r) {
    workload::WebServerReport again = run_classic(quick);
    if (again.req_per_sec > classic.req_per_sec) classic = again;
  }
  std::printf("%-12s %7" PRIu64 " %9.0f %6s %9s %7s %6s %6s %6.1f%%\n",
              "classic", classic.requests, classic.req_per_sec, "-", "-",
              "-", "-", "-",
              clean_rps > 0 ? classic.req_per_sec / clean_rps * 100.0
                            : 100.0);
  json.record("classic", classic.req_per_sec, "ops/s", bench::Better::kHigher);

  double ns = gateway_check_ns();
  const double null_syscall_ns = bench::default_null_syscall_ns();
  std::printf("\nhealthy-path gateway check: %.3f ns/syscall (%.3f%% of a "
              "%.0f ns null syscall; budget 0.5%%)\n",
              ns, ns / null_syscall_ns * 100.0, null_syscall_ns);
  json.record("gateway-check", ns, "ns", bench::Better::kLower);

  // Context: the SUPERVISED healthy path (subscribed supervisor, bound
  // guard, per-syscall unit attribution) against the unsupervised null
  // syscall.
  {
    double plain = getpid_ops_per_sec(false);
    double guarded = getpid_ops_per_sec(true);
    std::printf("guarded getpid: %.0f/s vs %.0f/s plain (attribution cost "
                "%.2f%%)\n",
                guarded, plain,
                plain > 0 ? (plain - guarded) / plain * 100.0 : 0.0);
    json.record("getpid-plain", plain, "ops/s", bench::Better::kHigher);
    json.record("getpid-guarded", guarded, "ops/s", bench::Better::kHigher);
  }

  // --- acceptance ----------------------------------------------------------
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  std::printf("\nacceptance:\n");
  check(all_complete, "every request completed at every injection rate");
  check(deterministic, "same seed -> identical breaker event ledger");
  check(storm5_rps >= classic.req_per_sec,
        "supervised @ p=0.05 >= pure-classic baseline");
  check(ns / null_syscall_ns <= 0.005,
        "gateway check <= 0.5% of a null syscall");
  if (!quick) {
    check(quarantines_at_5 >= 1, "p=0.05 storm reached quarantine");
    check(readmissions_at_5 >= 1, "quarantined worker was re-admitted");
  }
  return failures == 0 ? 0 : 1;
}
