// R1: web-server degradation under a fault storm (kfail).
//
// The N1 web server (epoll, consolidated accept_recv + sendfile) is run
// while kfail injects transient faults -- ENOMEM at kmalloc, EIO-class
// retries at the disk behind the filesystem, dropped packets at the
// network -- at rates rising 0 -> 5%. Transient injections charge the
// real recovery cost of each path (allocator direct-reclaim, a disk
// rotation, a retransmit), so throughput degrades the way a machine with
// a flaky disk and a lossy NIC degrades, without a single request
// failing. The injection schedule is seeded: every row reproduces.
//
// A second table measures the fault points themselves: small-write
// throughput with all sites disarmed (one relaxed load per site) vs
// armed at p=0 (full decision path, zero injections). The disarmed
// column is the overhead every user pays for having kfail compiled in;
// the acceptance bound is <= 0.5% against the armed-p0 spread.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "workload/webserver.hpp"

namespace {

using namespace usk;

struct StormPoint {
  double rate;
  workload::WebServerReport rep;
  std::uint64_t transients;  ///< injections absorbed during the run
};

std::uint64_t total_transients(const fault::Kfail& kf) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < fault::kNumSites; ++i) {
    sum += kf.stats(static_cast<fault::Site>(i)).transients;
  }
  return sum;
}

StormPoint run_storm(double rate, std::size_t workers, bool quick) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  // Put a real (simulated) disk behind the document tree so the disk
  // fault sites sit on the serving path, like the paper's server reading
  // cold files.
  blockdev::Disk disk(1 << 20);
  // Route disk charges through the kernel hook so they land on the serving
  // task: wall-clock is host-noisy, but units/req is deterministic.
  disk.set_charge_hook([charge = kernel.charge_hook()](std::uint64_t u) {
    charge(u / 8);  // disk units are cheaper than CPU units
  });
  blockdev::BufferCache cache(disk, 256);
  memfs.set_io_model(&cache);
  net::Net net(kernel);

  workload::WebServerConfig cfg;
  cfg.mode = workload::ServeMode::kConsolidated;
  cfg.workers = workers;
  cfg.conns_per_worker = quick ? 4 : 32;
  cfg.requests_per_conn = quick ? 8 : 16;
  cfg.file_bytes = 16384;
  cfg.files = 4;

  uk::Proc setup(kernel, "setup");
  workload::populate_www(setup, cfg);

  char spec[256];
  if (rate > 0.0) {
    std::snprintf(spec, sizeof spec,
                  "seed=11,kmalloc:p=%g:transient,disk.read:p=%g:transient,"
                  "disk.write:p=%g:transient,disk.latency:p=%g:transient,"
                  "net.send:p=%g:transient,net.recv:p=%g:transient",
                  rate, rate, rate, rate / 2, rate / 2, rate / 2);
  } else {
    std::snprintf(spec, sizeof spec, "off");
  }
  if (!kernel.kfail().apply_spec(spec).ok()) {
    std::fprintf(stderr, "bad spec: %s\n", spec);
    std::exit(1);
  }
  kernel.kfail().reset_stats();

  StormPoint pt;
  pt.rate = rate;
  pt.rep = workload::run_webserver(kernel, net, cfg);
  pt.transients = total_transients(kernel.kfail());
  return pt;
}

/// Direct cost of one disarmed fault point (the per-site thread-local
/// load), measured the same way T1 measures a disabled tracepoint: a
/// tight loop of checks on a thread with no injector installed, reported
/// as ns/check. The signal fence makes each iteration reload the context,
/// as a site between other kernel code does. This is the only cost a
/// kernel with kfail compiled in but disarmed ever pays.
double disarmed_check_ns() {
  const int kChecks = 50'000'000;
  static volatile std::uint64_t sink;  // keeps the checks from folding away
  double secs = bench::time_best(3, [&] {
    std::uint64_t fails = 0;
    for (int i = 0; i < kChecks; ++i) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
      auto f = USK_FAIL_POINT(fault::Site::kCopyIn);
      fails += f.fail;
    }
    sink = fails;
  });
  (void)sink;
  return secs / kChecks * 1e9;
}

/// Small-write throughput with the given spec armed; the fault points on
/// this path are copy_in (per write) and kmalloc (page-cache behaviour of
/// MemFs is in-memory, so the copy dominates).
double write_ops_per_sec(const char* spec) {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "writer");
  if (!kernel.kfail().apply_spec(spec).ok()) std::exit(1);

  int fd = proc.open("/w", fs::kOWrOnly | fs::kOCreat);
  char buf[64] = {};
  const int kOps = 200000;
  double secs = bench::time_best(3, [&] {
    for (int i = 0; i < kOps; ++i) {
      (void)proc.write(fd, buf, sizeof buf);
      (void)proc.lseek(fd, 0, fs::kSeekSet);
    }
  });
  proc.close(fd);
  return static_cast<double>(kOps) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title("R1", "web server under a seeded fault storm "
                           "(kfail transient injection, 0 -> 5%)");
  bench::print_note("consolidated mode, 16 KiB docs, disk-backed memfs; "
                    "transient = recovery cost charged, request still "
                    "served. seed=11: rows reproduce exactly.");

  bench::JsonWriter json("bench_fault_storm");
  const std::size_t workers = quick ? 2 : 4;
  const double rates[] = {0.0, 0.005, 0.01, 0.02, 0.05};

  std::printf("\n%-10s %8s %10s %10s %9s %11s %9s\n", "config", "reqs",
              "req/s", "injected", "inj/req", "k-units/req", "vs clean");
  double clean_rps = 0.0;
  const int reps = quick ? 1 : 3;
  for (double rate : rates) {
    // The injection schedule is seeded, so every repeat absorbs the same
    // faults; best-of-N only strips host-scheduler noise from the timing.
    StormPoint pt = run_storm(rate, workers, quick);
    for (int r = 1; r < reps; ++r) {
      StormPoint again = run_storm(rate, workers, quick);
      if (again.rep.req_per_sec > pt.rep.req_per_sec) pt = again;
    }
    if (rate == 0.0) clean_rps = pt.rep.req_per_sec;
    double ratio =
        clean_rps > 0 ? pt.rep.req_per_sec / clean_rps * 100.0 : 100.0;
    char cfgname[32];
    std::snprintf(cfgname, sizeof cfgname, "storm-p%.3f", rate);
    double per_req = pt.rep.requests
                         ? static_cast<double>(pt.transients) /
                               static_cast<double>(pt.rep.requests)
                         : 0.0;
    double units_per_req =
        pt.rep.requests ? static_cast<double>(pt.rep.server_kernel_units) /
                              static_cast<double>(pt.rep.requests)
                        : 0.0;
    std::printf("%-10s %8" PRIu64 " %10.0f %10" PRIu64 " %9.3f %11.0f %8.1f%%\n",
                cfgname, pt.rep.requests, pt.rep.req_per_sec, pt.transients,
                per_req, units_per_req, ratio);
    json.record(cfgname, pt.rep.req_per_sec, "ops/s", bench::Better::kHigher);
  }

  // The acceptance bound: a disarmed site must cost <= 0.5% of a null
  // syscall. Measured directly, like T1's disabled-tracepoint check.
  double ns = disarmed_check_ns();
  const double null_syscall_ns = bench::default_null_syscall_ns();
  const double disarmed_pct = ns / null_syscall_ns * 100.0;
  std::printf("\ndisarmed fault point: %.3f ns/check (%.3f%% of a %.0f ns "
              "null syscall; budget 0.5%%) %s\n",
              ns, disarmed_pct, null_syscall_ns,
              disarmed_pct <= 0.5 ? "PASS" : "FAIL");
  json.record("disarmed-check", ns, "ns", bench::Better::kLower);

  std::printf("\nfault-point cost on the write path (64 B writes):\n");
  std::printf("%-18s %14s\n", "config", "writes/s");
  double disarmed = write_ops_per_sec("off");
  double armed_p0 =
      write_ops_per_sec("copy_in:p=0,kmalloc:p=0,disk.write:p=0");
  std::printf("%-18s %14.0f\n", "disarmed", disarmed);
  std::printf("%-18s %14.0f\n", "armed-p0", armed_p0);
  std::printf("  armed-p0 overhead vs disarmed: %.2f%% (disarmed cost is "
              "one thread-local load/site)\n",
              disarmed > 0 ? (disarmed - armed_p0) / disarmed * 100.0 : 0.0);
  json.record("write-disarmed", disarmed, "ops/s", bench::Better::kHigher);
  json.record("write-armed-p0", armed_p0, "ops/s", bench::Better::kHigher);

  return disarmed_pct <= 0.5 ? 0 : 1;
}
