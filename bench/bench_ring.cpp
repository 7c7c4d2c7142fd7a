// N2: web server over batched submission rings -- the third
// crossing-elimination vehicle vs plain syscalls, consolidated calls,
// and Cosy compounds.
//
// The ring attacks the same accept-recv-open-read-send-close loop from
// the submission side: the worker queues linked SQE chains in shared
// memory (zero crossings) and ONE ring_enter drains a whole window of
// response chains kernel-side, dispatching the existing sys_* handlers
// through the nested gateway without re-crossing. This bench measures:
//
//   1. The four modes head-to-head at 4 vCPUs: crossings/req,
//      copied bytes/req, req/s.
//   2. The batch sweep (1/4/8/32 chains per enter at 32 req/conn):
//      crossings/req falls roughly as 1/batch toward the two-enters-
//      per-connection floor.
//   3. MT scaling 1 -> 4 vCPUs in ring mode (per-task rings shard by
//      construction: no shared state between workers).
//   4. A hard-fault storm at the SQE-corruption point (the shared-memory
//      TOCTOU surface) under the aggressive breaker: the supervisor
//      quarantines the ring and every request still completes through
//      classic decomposition + the worker's rescue path.
//
// Acceptance: ring @ batch>=8 spends <= 0.5 crossings/req, at or below
// consolidated, and >= 4x fewer than plain; the storm completes 100%.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "sup/supervisor.hpp"
#include "uk/userlib.hpp"
#include "workload/webserver.hpp"

namespace {

using namespace usk;

struct RunOut {
  workload::WebServerReport rep;
  ring::RingStats ring;  ///< zero for non-ring modes
};

RunOut run(workload::ServeMode mode, std::size_t workers,
           std::size_t requests_per_conn, std::size_t conns_per_worker,
           std::size_t ring_batch) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);
  ring::RingDev rdev(kernel);

  workload::WebServerConfig cfg;
  cfg.mode = mode;
  cfg.workers = workers;
  cfg.conns_per_worker = conns_per_worker;
  cfg.requests_per_conn = requests_per_conn;
  cfg.file_bytes = 16384;  // the N1 document size
  cfg.files = 4;
  cfg.ring = &rdev;
  cfg.ring_batch = ring_batch;

  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);
  RunOut out;
  out.rep = workload::run_webserver(kernel, net, cfg);
  out.ring = rdev.total_stats();
  return out;
}

double smp_req_per_sec(std::size_t workers,
                       const workload::WebServerReport& r) {
  return r.req_per_sec * static_cast<double>(workers);
}

void print_row(const char* config, std::size_t workers,
               const workload::WebServerReport& r) {
  std::printf("%-14s %6zu %8" PRIu64 " %10.0f %10.0f %12.2f %14.0f\n",
              config, workers, r.requests, r.req_per_sec,
              smp_req_per_sec(workers, r), r.crossings_per_req(),
              r.user_bytes_per_req());
}

struct StormOut {
  workload::WebServerReport rep;
  ring::RingStats ring;
  std::uint64_t quarantines = 0;
  std::uint64_t violations = 0;
  std::uint64_t fallback_runs = 0;
};

/// Ring mode under HARD kRingSqeCorrupt injection with the aggressive
/// breaker: failed chains cancel + roll back, the worker rescues each
/// failed slot classically, and once quarantined every subsequent enter
/// decomposes kernel-side -- completions never stop.
StormOut run_storm(double rate, bool quick) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);
  ring::RingDev rdev(kernel);

  sup::Supervisor s(kernel);
  sup::BreakerPolicy pol;
  pol.violation_threshold = 1;
  pol.window_invocations = 16;
  pol.probation_clean_runs = 2;
  pol.backoff_initial = 2;
  pol.backoff_multiplier = 2;
  pol.backoff_cap = 8;
  s.set_policy(pol);

  workload::WebServerConfig cfg;
  cfg.mode = workload::ServeMode::kRing;
  cfg.workers = 1;  // one breaker timeline
  cfg.conns_per_worker = quick ? 8 : 32;
  cfg.requests_per_conn = 8;
  cfg.file_bytes = 4096;
  cfg.files = 4;
  cfg.base_port = 8600;
  cfg.ring = &rdev;
  cfg.ring_batch = 8;
  cfg.supervisor = &s;

  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);

  char spec[96];
  if (rate > 0.0) {
    std::snprintf(spec, sizeof spec, "seed=23,ring.sqe_corrupt:p=%g", rate);
  } else {
    std::snprintf(spec, sizeof spec, "off");
  }
  if (!kernel.kfail().apply_spec(spec).ok()) {
    std::fprintf(stderr, "bad spec: %s\n", spec);
    std::exit(1);
  }

  StormOut out;
  out.rep = workload::run_webserver(kernel, net, cfg);
  out.ring = rdev.total_stats();
  for (std::size_t id = 0; id < s.extension_count(); ++id) {
    sup::ExtStats st = s.stats(static_cast<sup::ExtId>(id));
    out.quarantines += st.quarantines;
    out.violations += st.violations;
    out.fallback_runs += st.fallback_runs;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("N2", "web server over batched syscall rings: one "
                           "ring_enter drains a window of request chains");
  bench::print_note("16 KiB documents; ring chains are "
                    "recv->open->read->send->close linked SQEs, batch = "
                    "chains per enter. Crossings/copies are server-side "
                    "only.");

  bench::JsonWriter json("bench_ring");

  // --- 1. four modes head-to-head -------------------------------------------
  const std::size_t cmp_workers = quick ? 2 : 4;
  const std::size_t cmp_conns = 16;
  std::printf("\n%-14s %6s %8s %10s %10s %12s %14s\n", "mode", "vcpus",
              "reqs", "req/s", "smp req/s", "cross/req", "copied B/req");
  workload::WebServerReport plain, consolidated, cosy, ring8;
  struct ModeRow {
    workload::ServeMode mode;
    workload::WebServerReport* out;
  } rows[] = {{workload::ServeMode::kPlain, &plain},
              {workload::ServeMode::kConsolidated, &consolidated},
              {workload::ServeMode::kCosy, &cosy},
              {workload::ServeMode::kRing, &ring8}};
  // Metric names carry the worker count: --quick runs 2, a full run 4.
  const std::string wsuffix = "-" + std::to_string(cmp_workers) + "w";
  for (const ModeRow& m : rows) {
    RunOut r = run(m.mode, cmp_workers, 8, cmp_conns, 8);
    *m.out = r.rep;
    std::string name = workload::serve_mode_name(m.mode);
    if (m.mode == workload::ServeMode::kRing) name += "-b8";
    print_row(name.c_str(), cmp_workers, r.rep);
    json.record(name + wsuffix, smp_req_per_sec(cmp_workers, r.rep), "ops/s",
                bench::Better::kHigher);
    json.record("crossings-" + name + wsuffix, r.rep.crossings_per_req(),
                "count", bench::Better::kLower);
  }

  // --- 2. batch sweep --------------------------------------------------------
  std::printf("\nbatch sweep (ring, 1 vCPU, 32 req/conn):\n");
  std::printf("%-14s %6s %8s %10s %12s %14s\n", "batch", "vcpus", "reqs",
              "req/s", "cross/req", "copied B/req");
  const std::size_t batches[] = {1, 4, 8, 32};
  double sweep_cross[4] = {0, 0, 0, 0};
  int bi = 0;
  for (std::size_t b : batches) {
    RunOut r = run(workload::ServeMode::kRing, 1, 32,
                   quick ? std::size_t{8} : std::size_t{16}, b);
    char name[32];
    std::snprintf(name, sizeof name, "ring-sweep-b%zu", b);
    std::printf("%-14zu %6d %8" PRIu64 " %10.0f %12.2f %14.0f\n", b, 1,
                r.rep.requests, r.rep.req_per_sec,
                r.rep.crossings_per_req(), r.rep.user_bytes_per_req());
    sweep_cross[bi++] = r.rep.crossings_per_req();
    json.record(name, r.rep.req_per_sec, "ops/s", bench::Better::kHigher);
    json.record(std::string("crossings-") + name, r.rep.crossings_per_req(),
                "count", bench::Better::kLower);
  }

  // --- 3. MT scaling ---------------------------------------------------------
  std::printf("\nMT scaling (ring, batch 8, 8 req/conn):\n");
  std::printf("%-14s %6s %8s %10s %10s %12s\n", "config", "vcpus", "reqs",
              "req/s", "smp req/s", "cross/req");
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    if (quick && w > 2) continue;
    RunOut r = run(workload::ServeMode::kRing, w, 8, 16, 8);
    std::printf("%-14s %6zu %8" PRIu64 " %10.0f %10.0f %12.2f\n", "ring-b8",
                w, r.rep.requests, r.rep.req_per_sec,
                smp_req_per_sec(w, r.rep), r.rep.crossings_per_req());
    json.record("ring-scale-" + std::to_string(w) + "w",
                smp_req_per_sec(w, r.rep), "ops/s", bench::Better::kHigher);
  }

  // --- 4. fault storm --------------------------------------------------------
  std::printf("\nSQE-corruption storm (ring-b8, 1 vCPU, aggressive "
              "breaker):\n");
  std::printf("%-14s %8s %9s %6s %9s %6s %10s\n", "config", "reqs", "req/s",
              "viol", "fallback", "quar", "complete");
  const double rates[] = {0.0, 0.05};
  bool storm_complete = true;
  std::uint64_t storm_quar = 0, storm_fallback_enters = 0;
  const std::uint64_t expect_reqs =
      static_cast<std::uint64_t>(quick ? 8 : 32) * 8;
  for (double rate : rates) {
    StormOut st = run_storm(rate, quick);
    char name[32];
    std::snprintf(name, sizeof name, "storm-p%.2f", rate);
    bool complete = st.rep.requests == expect_reqs;
    std::printf("%-14s %8" PRIu64 " %9.0f %6" PRIu64 " %9" PRIu64
                " %6" PRIu64 " %9s\n",
                name, st.rep.requests, st.rep.req_per_sec, st.violations,
                st.fallback_runs, st.quarantines,
                complete ? "100%" : "INCOMPLETE");
    json.record(name, st.rep.req_per_sec, "ops/s", bench::Better::kHigher);
    if (rate > 0.0) {
      if (!complete) storm_complete = false;
      storm_quar = st.quarantines;
      storm_fallback_enters = st.ring.enters_fallback;
    }
  }

  // --- acceptance ------------------------------------------------------------
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  const double ring_cross = ring8.crossings_per_req();
  const double plain_cross = plain.crossings_per_req();
  const double cons_cross = consolidated.crossings_per_req();
  std::printf("\nacceptance:\n");
  std::printf("  crossings/req: plain %.2f, consolidated %.2f, cosy %.2f, "
              "ring-b8 %.2f\n",
              plain_cross, cons_cross, cosy.crossings_per_req(), ring_cross);
  check(ring_cross <= 0.5, "ring @ batch 8 <= 0.5 crossings/req");
  check(ring_cross <= cons_cross,
        "ring @ batch 8 at or below consolidated crossings/req");
  check(plain_cross >= 4.0 * ring_cross,
        "ring @ batch 8 >= 4x fewer crossings than plain");
  check(sweep_cross[0] > sweep_cross[3],
        "batch sweep: crossings/req falls from batch 1 to batch 32");
  check(storm_complete, "p=0.05 SQE-corruption storm completed 100%");
  check(storm_quar >= 1, "storm reached quarantine");
  check(storm_fallback_enters >= 1,
        "quarantined ring decomposed via fallback enters");
  // The headline ratio, exported for threshold checks.
  json.record("crossing-ratio-plain-over-ring" + wsuffix,
              ring_cross > 0 ? plain_cross / ring_cross : 0.0, "ratio",
              bench::Better::kHigher);
  return failures == 0 ? 0 : 1;
}
