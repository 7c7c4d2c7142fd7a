// N1: web server over the loopback network -- plain vs consolidated vs
// Cosy serving (paper §2.2).
//
// The paper's server motivation: Apache-style daemons spend their life in
// accept-recv-open-read-send-close loops, each call a boundary crossing
// and every payload byte copied twice (file->user on read, user->socket
// on send). Consolidation collapses the prologue into accept_recv and the
// response into sendfile (payload moves kernel-side, zero user copies);
// Cosy goes further and serves a whole keep-alive connection in one
// compound. This bench measures all three on the same epoll server across
// 1/2/4/8 virtual CPUs and reports crossings/request, copied
// bytes/request, and requests/sec.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "net/net.hpp"
#include "workload/webserver.hpp"

namespace {

using namespace usk;

workload::WebServerReport run(workload::ServeMode mode, std::size_t workers,
                              std::size_t requests_per_conn) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);

  workload::WebServerConfig cfg;
  cfg.mode = mode;
  cfg.workers = workers;
  cfg.conns_per_worker = 16;
  cfg.requests_per_conn = requests_per_conn;
  cfg.file_bytes = 16384;  // 4 chunk-sized read+send rounds in plain mode
  cfg.files = 4;

  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);
  return workload::run_webserver(kernel, net, cfg);
}

/// Modelled req/s on `workers` virtual CPUs, the bench_smp_scaling
/// convention: workers are symmetric and independent (own port, own
/// sockets), so on a saturated host wall/workers is the per-virtual-CPU
/// share of the measured work. On a host with >= workers CPUs, wall and
/// smp converge.
double smp_req_per_sec(std::size_t workers,
                       const workload::WebServerReport& r) {
  return r.req_per_sec * static_cast<double>(workers);
}

void print_row(const char* mix, workload::ServeMode mode, std::size_t workers,
               const workload::WebServerReport& r) {
  std::printf("%-10s %-13s %6zu %8" PRIu64 " %10.0f %10.0f %12.2f %14.0f\n",
              mix, workload::serve_mode_name(mode), workers, r.requests,
              r.req_per_sec, smp_req_per_sec(workers, r),
              r.crossings_per_req(), r.user_bytes_per_req());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("N1", "web server: plain vs consolidated "
                           "(accept_recv+sendfile) vs Cosy compounds");
  bench::print_note("16 KiB documents, 16 conns/worker; keep-alive = 8 "
                    "requests/conn, one-shot = 1. Crossings and copied "
                    "bytes are server-side only.");

  bench::JsonWriter json("bench_webserver");
  const std::size_t worker_counts[] = {1, 2, 4, 8};
  const workload::ServeMode modes[] = {workload::ServeMode::kPlain,
                                       workload::ServeMode::kConsolidated,
                                       workload::ServeMode::kCosy};

  std::printf("\n%-10s %-13s %6s %8s %10s %10s %12s %14s\n", "mix", "mode",
              "vcpus", "reqs", "req/s", "smp req/s", "cross/req",
              "copied B/req");

  // Keep-alive mix across the CPU sweep (the scaling story).
  workload::WebServerReport plain4, consolidated4, cosy4;
  double plain1smp = 0, plain4smp = 0;
  // Wall req/s on a saturated 1-CPU host is noisy run to run, so the
  // req/s acceptance line averages the whole vCPU sweep per mode.
  double sum_rps[3] = {0, 0, 0};
  int n_rps[3] = {0, 0, 0};
  for (workload::ServeMode mode : modes) {
    for (std::size_t workers : worker_counts) {
      if (quick && workers > 2) continue;
      workload::WebServerReport r = run(mode, workers, 8);
      sum_rps[static_cast<int>(mode)] += r.req_per_sec;
      ++n_rps[static_cast<int>(mode)];
      print_row("keepalive", mode, workers, r);
      json.record(std::string(workload::serve_mode_name(mode)) +
                      "-keepalive-" + std::to_string(workers) + "w",
                  smp_req_per_sec(workers, r), "ops/s", bench::Better::kHigher);
      if (workers == 4) {
        if (mode == workload::ServeMode::kPlain) plain4 = r;
        if (mode == workload::ServeMode::kConsolidated) consolidated4 = r;
        if (mode == workload::ServeMode::kCosy) cosy4 = r;
      }
      if (mode == workload::ServeMode::kPlain) {
        if (workers == 1) plain1smp = smp_req_per_sec(workers, r);
        if (workers == 4) plain4smp = smp_req_per_sec(workers, r);
      }
    }
    std::printf("\n");
  }

  // One-shot mix at one CPU count (connection-prologue-dominated).
  const std::size_t oneshot_workers = quick ? 2 : 4;
  for (workload::ServeMode mode : modes) {
    workload::WebServerReport r = run(mode, oneshot_workers, 1);
    print_row("oneshot", mode, oneshot_workers, r);
    json.record(std::string(workload::serve_mode_name(mode)) + "-oneshot-" +
                    std::to_string(oneshot_workers) + "w",
                smp_req_per_sec(oneshot_workers, r), "ops/s",
                bench::Better::kHigher);
  }

  if (!quick && plain4.requests > 0 && consolidated4.requests > 0) {
    std::printf("\n  keep-alive @4 vCPUs, consolidated vs plain:\n");
    std::printf("    crossings/req  %.2f -> %.2f  (%.2fx, target >= 3x)\n",
                plain4.crossings_per_req(), consolidated4.crossings_per_req(),
                plain4.crossings_per_req() / consolidated4.crossings_per_req());
    std::printf("    copied B/req   %.0f -> %.0f  (%.2fx, target >= 2x)\n",
                plain4.user_bytes_per_req(), consolidated4.user_bytes_per_req(),
                plain4.user_bytes_per_req() /
                    consolidated4.user_bytes_per_req());
    const double plain_rps = sum_rps[0] / n_rps[0];
    const double cons_rps = sum_rps[1] / n_rps[1];
    std::printf("    req/s (sweep mean) %.0f -> %.0f  (%+.1f%%)\n",
                plain_rps, cons_rps, (cons_rps / plain_rps - 1.0) * 100.0);
    if (cosy4.requests > 0) {
      std::printf("    cosy: %.2f crossings/req, %.0f copied B/req, "
                  "%.0f req/s (sweep mean)\n",
                  cosy4.crossings_per_req(), cosy4.user_bytes_per_req(),
                  sum_rps[2] / n_rps[2]);
    }
    if (plain1smp > 0 && plain4smp > 0) {
      std::printf("    plain scaling 1 -> 4 vCPUs: %.2fx smp req/s\n",
                  plain4smp / plain1smp);
    }
  }
  return 0;
}
