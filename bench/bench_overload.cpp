// R3: kdl under overload -- goodput, admitted latency, shed accuracy,
// cancellation leak oracle, and the disarmed tax.
//
// The open-loop overload workload (src/workload/overload) drives the
// serving pool -- N1's epoll workers plus the kdl request handler -- at
// 2x its calibrated capacity. Without kdl every request
// is eventually served, far past its deadline, at full cost: goodput
// (in-deadline responses as a fraction of what the calibrated capacity
// could serve in the same wall time) collapses as the backlog grows.
// With kdl armed, requests carry their residual budget across the hop,
// infeasible ones are shed at ingress for the cost of a header, clients
// spend bounded retry budgets, and the pool's capacity goes to requests
// it can still serve in time.
//
// JSON acceptance metrics (checked by run_tier1.sh dl):
//   overload-goodput-pct            >= 70   (kdl run at 2x capacity)
//   overload-admitted-p99-ratio     <= 5.0  (admitted p99 / uncontended p99)
//   overload-shed-accuracy-pct      >= 70   (admitted requests in deadline)
//   overload-baseline-degraded      >= 1    (baseline goodput collapsed)
//   overload-cancels                >= 1000 (seeded cancellation storm)
//   overload-cancel-leaks           <= 0    (fds + sockets after storm)
//   dl-disarmed-overhead-pct        <= 1.0  (disabled scope+gate site)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/common.hpp"
#include "dl/dl.hpp"
#include "fs/memfs.hpp"
#include "net/net.hpp"
#include "uk/userlib.hpp"
#include "workload/overload.hpp"

namespace {

using namespace usk;

constexpr int kSiteLoops = 2000000;

workload::OverloadConfig base_cfg(bool quick) {
  workload::OverloadConfig cfg;
  (void)quick;
  cfg.workers = 2;
  cfg.client_threads = 24;  // re-derived from capacity after calibration
  cfg.tenants = 4;
  // Heavy documents (512 KiB = 128 chunk round trips) push per-request
  // service into the milliseconds. That keeps the end-to-end deadline
  // (a small multiple of the uncontended p99) far above thread-wakeup
  // jitter -- on a small host, dozens of executors contending for cores
  // add noise that would drown a sub-millisecond budget and make every
  // arrival dead before its first byte hit the wire.
  cfg.file_bytes = 524288;
  cfg.files = 4;
  cfg.seed = 42;
  return cfg;
}

/// Synchronous executors needed so the open loop can hold the offered
/// rate even though every attempt waits out the server queue (sheds are
/// decided at recv time, after queueing): demand ~= offered_rps x
/// per-arrival latency, and the latter rides the deadline rim under
/// overload. 2x headroom for retries and scheduler jitter.
std::size_t executors_for(double offered_rps, std::uint64_t deadline_ms) {
  const double demand =
      offered_rps * static_cast<double>(deadline_ms) / 1000.0 * 2.0;
  return std::clamp<std::size_t>(static_cast<std::size_t>(demand), 16, 64);
}

/// One overload episode on a fresh kernel, with that kernel's kdl armed
/// or not.
workload::OverloadReport run_episode(const workload::OverloadConfig& cfg,
                                     bool dl_on) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);
  kernel.dl().set_enabled(dl_on);
  return workload::run_overload(kernel, net, cfg);
}

void print_run(const char* name, const workload::OverloadReport& r) {
  std::printf("%-10s offered %6" PRIu64 "  good %5.1f%%  late %5" PRIu64
              "  shed %5" PRIu64 "  drop %4" PRIu64 "  p99 %7.2fms"
              "  adm-p99 %7.2fms\n",
              name, r.offered, r.goodput_pct(), r.ok_late, r.shed, r.dropped,
              static_cast<double>(r.p99_ns) / 1e6,
              static_cast<double>(r.admitted_p99_ns) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("R3", "kdl overload: goodput under 2x offered load, "
                           "admitted p99, shed accuracy, cancel leak oracle");
  bench::JsonWriter json("bench_overload");

  // --- 1. disarmed tax: disabled DeadlineScope+gate site vs null syscall ----
  // The null syscall already crosses the (disarmed) gateway check; the
  // site loop adds a full construct+destruct of a disabled scope.
  {
    fs::MemFs rootfs;
    uk::Kernel kernel(rootfs);
    kernel.dl().set_enabled(false);
    const double null_ns = bench::default_null_syscall_ns();
    const double site_s = bench::time_best(3, [&kernel] {
      for (int i = 0; i < kSiteLoops; ++i) {
        dl::DeadlineScope s(kernel.dl(), std::chrono::milliseconds(5));
      }
    });
    const double site_ns = site_s * 1e9 / kSiteLoops;
    const double fraction = site_ns / null_ns;
    std::printf("%-34s %12.1f ns\n", "null syscall (kdl off)", null_ns);
    std::printf("%-34s %12.3f ns\n", "disabled DeadlineScope site", site_ns);
    std::printf("%-34s %12.4f      %s (budget 0.01)\n",
                "disarmed overhead fraction", fraction,
                fraction <= 0.01 ? "PASS" : "FAIL");
    json.record("null_syscall_dl_off", null_ns, "ns", bench::Better::kLower);
    json.record("dl-disarmed-overhead-pct", fraction * 100.0, "%",
                bench::Better::kLower);
    if (fraction > 0.01) return 1;
  }

  // --- 2. calibrate: closed-loop single-stream service rate + p99 ----------
  workload::OverloadConfig cal = base_cfg(quick);
  cal.requests = quick ? 200 : 400;
  cal.deadline_ms = 1000;
  double cal_rps = 0.0;
  std::uint64_t cal_p99 = 0;
  {
    fs::MemFs memfs;
    uk::Kernel kernel(memfs);
    memfs.set_cost_hook(kernel.charge_hook());
    net::Net net(kernel);
    kernel.dl().set_enabled(false);
    workload::calibrate_overload(kernel, net, cal, &cal_rps, &cal_p99);
  }
  // Pool capacity: workers only add throughput up to the core count --
  // on a single-CPU host everything serializes and the closed-loop
  // single-stream rate IS the total achievable rate.
  const double par = std::min<double>(
      static_cast<double>(cal.workers),
      std::max(1u, std::thread::hardware_concurrency()));
  const double capacity = cal_rps * par;
  std::printf("\n%-34s %12.0f req/s (x%.0f parallel -> %.0f)\n",
              "calibrated single-stream rate", cal_rps, par, capacity);
  std::printf("%-34s %12.3f ms\n", "uncontended p99",
              static_cast<double>(cal_p99) / 1e6);

  // --- 3. overload episodes: baseline (kdl off) vs kdl at 2x capacity ------
  workload::OverloadConfig cfg = base_cfg(quick);
  cfg.offered_rps = 2.0 * capacity;
  // The end-to-end budget: a few uncontended p99s. Tight enough that an
  // unprotected backlog blows through it, wide enough for a retry; the
  // shed rim it induces also caps admitted sojourn well inside the 5x
  // p99 ceiling, which is what keeps the admitted-p99 gate honest.
  cfg.deadline_ms =
      std::max<std::uint64_t>(3, (3 * cal_p99 + 999'999) / 1'000'000);
  cfg.client_threads = executors_for(cfg.offered_rps, cfg.deadline_ms);
  const double run_s = quick ? 1.0 : 2.0;
  cfg.requests = static_cast<std::size_t>(cfg.offered_rps * run_s);
  if (cfg.requests < 500) cfg.requests = 500;
  if (cfg.requests > 20000) cfg.requests = 20000;

  workload::OverloadReport rb = run_episode(cfg, /*dl_on=*/false);
  workload::OverloadReport rd = run_episode(cfg, /*dl_on=*/true);

  std::printf("\n");
  print_run("baseline", rb);
  print_run("kdl", rd);

  // Goodput is measured against CAPACITY, not offered load: at 2x
  // overload served/offered tops out at 50% by arithmetic even for an
  // ideal system. The question overload control answers is how much of
  // the pool's achievable rate still lands as in-deadline responses.
  const auto cap_goodput = [&](const workload::OverloadReport& r) {
    const double ideal = capacity * r.elapsed_s;
    return ideal > 0.0
               ? std::min(100.0, 100.0 * static_cast<double>(r.ok_in_deadline) /
                                     ideal)
               : 0.0;
  };
  const double goodput = cap_goodput(rd);
  const double base_goodput = cap_goodput(rb);
  const double ratio =
      cal_p99 > 0 ? static_cast<double>(rd.admitted_p99_ns) /
                        static_cast<double>(cal_p99)
                  : 0.0;
  const std::uint64_t served = rd.ok_in_deadline + rd.ok_late;
  const double accuracy =
      served > 0 ? 100.0 * static_cast<double>(rd.ok_in_deadline) /
                       static_cast<double>(served)
                 : 0.0;
  const int degraded = base_goodput + 15.0 <= goodput ? 1 : 0;

  std::printf("\n%-34s %12.1f %%   %s (floor 70, of capacity)\n",
              "kdl goodput", goodput, goodput >= 70.0 ? "PASS" : "FAIL");
  std::printf("%-34s %12.2f x   %s (ceiling 5x)\n", "admitted p99 ratio",
              ratio, ratio <= 5.0 ? "PASS" : "FAIL");
  std::printf("%-34s %12.1f %%   %s (floor 70)\n", "shed accuracy", accuracy,
              accuracy >= 70.0 ? "PASS" : "FAIL");
  std::printf("%-34s %12.1f %%   %s (kdl - 15 above it)\n",
              "baseline goodput", base_goodput,
              degraded == 1 ? "PASS" : "FAIL");
  json.record("overload-goodput-pct", goodput, "%", bench::Better::kHigher);
  json.record("overload-admitted-p99-ratio", ratio, "ratio",
              bench::Better::kLower);
  json.record("overload-shed-accuracy-pct", accuracy, "%",
              bench::Better::kHigher);
  json.record("overload-baseline-degraded", degraded, "count",
              bench::Better::kHigher);
  json.record("overload-baseline-goodput-pct", base_goodput, "%",
              bench::Better::kHigher);
  json.record("overload-kdl-throughput-rps", rd.throughput_rps, "ops/s",
              bench::Better::kHigher);

  // --- 4. cancellation storm + leak oracle ---------------------------------
  // At ~1x capacity with a canceller firing every 100us, thousands of
  // cancels land at arbitrary points (parked in epoll_wait, mid-serve,
  // at the gateway). Every unwind must release its fds and sockets.
  workload::OverloadConfig storm = base_cfg(quick);
  storm.offered_rps = capacity;
  storm.deadline_ms = cfg.deadline_ms;
  storm.client_threads = executors_for(storm.offered_rps, storm.deadline_ms);
  storm.cancel_period_us = 100;
  storm.requests = static_cast<std::size_t>(storm.offered_rps *
                                            (quick ? 0.6 : 1.2));
  if (storm.requests < 400) storm.requests = 400;
  if (storm.requests > 20000) storm.requests = 20000;
  workload::OverloadReport rc = run_episode(storm, /*dl_on=*/true);
  const std::uint64_t leaks = rc.leaked_fds + rc.leaked_sockets;

  std::printf("\n%-34s %12" PRIu64 "      %s (floor 1000)\n",
              "cancellations issued", rc.cancels_issued,
              rc.cancels_issued >= 1000 ? "PASS" : "FAIL");
  std::printf("%-34s %12" PRIu64 "      %s (fds %" PRIu64 " sockets %" PRIu64
              " kmalloc %+" PRId64 "B)\n",
              "leaks after storm", leaks, leaks == 0 ? "PASS" : "FAIL",
              rc.leaked_fds, rc.leaked_sockets, rc.kmalloc_delta);
  json.record("overload-cancels", static_cast<double>(rc.cancels_issued),
              "count", bench::Better::kHigher);
  json.record("overload-cancel-leaks", static_cast<double>(leaks), "count",
              bench::Better::kLower);

  bench::print_note("goodput = in-deadline responses / what the calibrated "
                    "capacity could serve in the same wall time; admitted p99 "
                    "= successful attempt latency; accuracy = served requests "
                    "that met their deadline");
  const bool pass = goodput >= 70.0 && ratio <= 5.0 && accuracy >= 70.0 &&
                    degraded == 1 && rc.cancels_issued >= 1000 && leaks == 0;
  return pass ? 0 : 1;
}
