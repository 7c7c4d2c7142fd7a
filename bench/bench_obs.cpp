// O1: kspan/kmetrics overhead -- the request-tracing tax.
//
// Observability that perturbs the request path is worse than none: the
// numbers it reports stop describing the system users run. Two
// acceptance claims pin the tax:
//
//  1. DISABLED spans are free (<= 1% of a null syscall). A disabled
//     SpanScope site is one relaxed atomic load and a predicted branch
//     (the object never joins the thread-local stack, the epilogue
//     check is one thread-local load). This bench measures a full
//     construct+destruct of a disabled site and reports it as a
//     fraction of the measured null syscall.
//
//  2. ENABLED spans cost <= 5% webserver throughput. The N1 workload
//     runs A/B (spans off / spans on): every request allocates its
//     ingress span, the consolidated network calls open children, every
//     retiring syscall Scope attributes crossings and bytes, and each
//     finished span takes the store mutex once.
//
// JSON acceptance metrics (checked by run_tier1.sh obs). Both are
// recorded as PERCENT: the JSON writer emits one decimal place, which
// would flatten a raw 0.002 fraction to 0.0 and make the gate vacuous.
//   span-disabled-overhead-pct      <= 1.0   (site cost / null syscall)
//   span-enabled-webserver-slowdown-pct <= 105  (100 * off_rps / on_rps)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hpp"
#include "net/net.hpp"
#include "trace/span.hpp"
#include "uk/userlib.hpp"
#include "workload/webserver.hpp"

namespace {

using namespace usk;

constexpr int kNullCalls = 200000;
constexpr int kSpanLoops = 2000000;

/// One N1 webserver run on a fresh kernel with spans on or off.
workload::WebServerReport run_ws(bool spans_on, bool quick) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);

  workload::WebServerConfig cfg;
  cfg.mode = workload::ServeMode::kConsolidated;
  cfg.workers = 2;
  cfg.conns_per_worker = quick ? 8 : 16;
  cfg.requests_per_conn = 8;
  cfg.file_bytes = 16384;  // the N1 document size
  cfg.files = 4;

  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);

  if (spans_on) {
    trace::kspan().enable();
  } else {
    trace::kspan().disable();
  }
  trace::kspan().reset();
  workload::WebServerReport rep = workload::run_webserver(kernel, net, cfg);
  trace::kspan().disable();
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("O1", "kspan overhead: disabled span-site cost and "
                           "span-enabled webserver throughput");
  bench::JsonWriter json("bench_obs");

  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  rootfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "obs-bench");

  // --- 1. disabled span site vs the null syscall ---------------------------
  trace::kspan().disable();
  const double null_ns = bench::null_syscall_ns(proc, kNullCalls);
  double span_s = bench::time_best(3, [] {
    for (int i = 0; i < kSpanLoops; ++i) {
      trace::SpanScope s("bench.site", trace::SpanVehicle::kNone);
    }
  });
  const double span_ns = span_s * 1e9 / kSpanLoops;
  const double fraction = span_ns / null_ns;

  std::printf("%-34s %12.1f ns\n", "null syscall (spans off)", null_ns);
  std::printf("%-34s %12.3f ns\n", "disabled SpanScope site", span_ns);
  std::printf("%-34s %12.4f      %s (budget 0.01)\n",
              "disabled overhead fraction", fraction,
              fraction <= 0.01 ? "PASS" : "FAIL");
  json.record("null_syscall_spans_off", 1, 1e9 / null_ns,
              null_ns * kNullCalls / 1e9);
  json.record("span-disabled-overhead-pct", 1, fraction * 100.0, span_s);

  // --- 2. N1 webserver A/B: spans off vs spans on --------------------------
  // Best-of-3 each side: the workload is thread-scheduled, so single
  // runs are noisy in exactly the range the 5% budget polices.
  workload::WebServerReport off = run_ws(false, quick);
  workload::WebServerReport on = run_ws(true, quick);
  for (int i = 0; i < 2; ++i) {
    workload::WebServerReport o = run_ws(false, quick);
    if (o.req_per_sec > off.req_per_sec) off = o;
    workload::WebServerReport n = run_ws(true, quick);
    if (n.req_per_sec > on.req_per_sec) on = n;
  }
  const double slowdown =
      on.req_per_sec > 0 ? off.req_per_sec / on.req_per_sec : 0.0;

  std::printf("\n%-14s %8s %10s %12s %14s\n", "config", "reqs", "req/s",
              "cross/req", "copied B/req");
  std::printf("%-14s %8" PRIu64 " %10.0f %12.2f %14.0f\n", "spans-off",
              off.requests, off.req_per_sec, off.crossings_per_req(),
              off.user_bytes_per_req());
  std::printf("%-14s %8" PRIu64 " %10.0f %12.2f %14.0f\n", "spans-on",
              on.requests, on.req_per_sec, on.crossings_per_req(),
              on.user_bytes_per_req());
  std::printf("%-34s %12.3f x    %s (budget 1.05)\n",
              "span-enabled slowdown", slowdown,
              slowdown <= 1.05 ? "PASS" : "FAIL");
  const bool complete = off.requests == on.requests && on.requests > 0;
  std::printf("%-34s %12s\n", "both runs served every request",
              complete ? "PASS" : "FAIL");
  json.record("webserver_spans_off", 2, off.req_per_sec, off.elapsed_s);
  json.record("webserver_spans_on", 2, on.req_per_sec, on.elapsed_s);
  json.record("span-enabled-webserver-slowdown-pct", 2, slowdown * 100.0,
              on.elapsed_s);

  bench::print_note("disabled fraction = full construct+destruct of a "
                    "disabled SpanScope vs the null syscall; slowdown = "
                    "best-of-3 req/s ratio on the N1 webserver");
  return (fraction <= 0.01 && slowdown <= 1.05 && complete) ? 0 : 1;
}
