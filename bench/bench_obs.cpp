// O1: kspan overhead -- the request-tracing tax.
//
// Observability that perturbs the request path is worse than none: the
// numbers it reports stop describing the system users run. Two
// acceptance claims pin the tax:
//
//  1. DISABLED spans are free (<= 1% of a null syscall). A disabled
//     SpanScope site is one relaxed atomic load of its Kernel's Kspan
//     and a predicted branch (the object never becomes the thread's
//     innermost span, the epilogue check is one thread-local load).
//     This bench measures a full construct+destruct of a disabled site
//     and reports it as a fraction of the measured null syscall.
//
//  2. ENABLED spans cost <= 5% webserver throughput. The N1 workload
//     runs A/B (spans off / spans on) in alternating pairs, and the
//     median pair ratio is gated: every request allocates its
//     ingress span, the consolidated network calls open children, every
//     retiring syscall Scope attributes crossings and bytes, and each
//     finished span takes the store mutex once.
//
// JSON acceptance metrics, in % (checked by run_tier1.sh obs):
//   span-disabled-overhead-pct      <= 1.0   (site cost / null syscall)
//   span-enabled-webserver-slowdown-pct <= 105  (100 * off_rps / on_rps)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "net/net.hpp"
#include "trace/span.hpp"
#include "uk/userlib.hpp"
#include "workload/webserver.hpp"

namespace {

using namespace usk;

constexpr int kSpanLoops = 2000000;
constexpr int kPairs = 25;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One N1 webserver run on a fresh kernel with spans on or off.
workload::WebServerReport run_ws(bool spans_on, bool quick) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);

  workload::WebServerConfig cfg;
  cfg.mode = workload::ServeMode::kConsolidated;
  cfg.workers = 2;
  cfg.conns_per_worker = quick ? 16 : 32;
  cfg.requests_per_conn = 8;
  cfg.file_bytes = 16384;  // the N1 document size
  cfg.files = 4;

  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);

  kernel.kspan().set_enabled(spans_on);
  return workload::run_webserver(kernel, net, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("O1", "kspan overhead: disabled span-site cost and "
                           "span-enabled webserver throughput");
  bench::JsonWriter json("bench_obs");

  // --- 1. disabled span site vs the null syscall ---------------------------
  trace::Kspan ks;
  ks.set_enabled(false);
  const double null_ns = bench::default_null_syscall_ns();
  double span_s = bench::time_best(3, [&ks] {
    for (int i = 0; i < kSpanLoops; ++i) {
      trace::SpanScope s(ks, "bench.site", trace::SpanVehicle::kNone);
    }
  });
  const double span_ns = span_s * 1e9 / kSpanLoops;
  const double fraction = span_ns / null_ns;

  std::printf("%-34s %12.1f ns\n", "null syscall (spans off)", null_ns);
  std::printf("%-34s %12.3f ns\n", "disabled SpanScope site", span_ns);
  std::printf("%-34s %12.4f      %s (budget 0.01)\n",
              "disabled overhead fraction", fraction,
              fraction <= 0.01 ? "PASS" : "FAIL");
  json.record("null_syscall_spans_off", null_ns, "ns", bench::Better::kLower);
  json.record("span-disabled-overhead-pct", fraction * 100.0, "%",
              bench::Better::kLower);

  // --- 2. N1 webserver A/B: spans off vs spans on --------------------------
  // The median of kPairs off/on pairs, each pair's ratio taken from two
  // back-to-back runs. The workload is thread-scheduled: on a shared
  // 4-vCPU host one run's req/s swings +-10% whatever its length, so a
  // best-of or a single pair cannot resolve the 5% the budget polices,
  // while the median of 25 spans-off/spans-off pairs reads 1.00 +- 0.01.
  std::vector<double> ratios;
  std::vector<double> off_rps;
  std::vector<double> on_rps;
  workload::WebServerReport off;
  workload::WebServerReport on;
  bool complete = true;
  for (int i = 0; i < kPairs; ++i) {
    // Alternate which side runs first, so drift within a pair cancels.
    if (i % 2 == 0) off = run_ws(false, quick);
    on = run_ws(true, quick);
    if (i % 2 != 0) off = run_ws(false, quick);
    complete = complete && off.requests == on.requests && on.requests > 0;
    off_rps.push_back(off.req_per_sec);
    on_rps.push_back(on.req_per_sec);
    ratios.push_back(on.req_per_sec > 0 ? off.req_per_sec / on.req_per_sec
                                        : 0.0);
  }
  const double slowdown = median(ratios);

  std::printf("\n%-14s %8s %10s %12s %14s\n", "config", "reqs",
              "med req/s", "cross/req", "copied B/req");
  std::printf("%-14s %8" PRIu64 " %10.0f %12.2f %14.0f\n", "spans-off",
              off.requests, median(off_rps), off.crossings_per_req(),
              off.user_bytes_per_req());
  std::printf("%-14s %8" PRIu64 " %10.0f %12.2f %14.0f\n", "spans-on",
              on.requests, median(on_rps), on.crossings_per_req(),
              on.user_bytes_per_req());
  std::printf("%-34s", "off/on ratio per pair");
  for (double r : ratios) std::printf(" %.3f", r);
  std::printf("\n%-34s %12.3f x    %s (budget 1.05)\n",
              "span-enabled slowdown (median)", slowdown,
              slowdown <= 1.05 ? "PASS" : "FAIL");
  std::printf("%-34s %12s\n", "every run served every request",
              complete ? "PASS" : "FAIL");
  json.record("webserver_spans_off", median(off_rps), "ops/s",
              bench::Better::kHigher);
  json.record("webserver_spans_on", median(on_rps), "ops/s",
              bench::Better::kHigher);
  json.record("span-enabled-webserver-slowdown-pct", slowdown * 100.0, "%",
              bench::Better::kLower);

  bench::print_note("disabled fraction = full construct+destruct of a "
                    "disabled SpanScope vs the null syscall; slowdown = "
                    "median off/on req/s ratio of alternating N1 "
                    "webserver pairs");
  return (fraction <= 0.01 && slowdown <= 1.05 && complete) ? 0 : 1;
}
