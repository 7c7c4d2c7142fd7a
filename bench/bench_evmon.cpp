// E6 (paper §3.3): event-monitor overhead under PostMark.
//
// "we added instrumentation for the dentry cache lock, dcache_lock ...
// this lock was hit an average of 8,805 times a second ... Adding the
// event dispatcher and ring buffer resulted in a 3.9% overhead; running a
// user-space logger built around librefcounts in parallel with PostMark
// increased the overhead to 103%. Running a user-space program that acts
// like the logger but does not write to disk still gave a 61% overhead
// ... we believe that the overhead from the user-space logger is due to
// inefficiencies in the user-kernel interface; in our current prototype,
// librefcounts polls the character device continuously rather than using
// blocking reads."
//
// Single-CPU timesharing is modelled explicitly: after every PostMark
// transaction the logger process gets a timeslice. A polling logger spends
// its slice issuing chardev read() system calls (each a full boundary
// crossing) whether or not events are pending -- that syscall storm is the
// paper's diagnosed inefficiency. The disk-writing variant additionally
// writes formatted records through the kernel to a log file on a simulated
// 2005 SCSI disk. A blocking-reads logger (the paper's proposed fix) is
// included as the final row.
#include <cinttypes>

#include "bench/common.hpp"
#include "evmon/chardev.hpp"
#include "evmon/dispatcher.hpp"
#include "evmon/monitors.hpp"
#include "evmon/rules.hpp"
#include "uk/userlib.hpp"
#include "workload/postmark.hpp"

namespace {

using namespace usk;

// 2005 SCSI log-disk model: per-flush seek/settle plus streaming cost.
constexpr std::uint64_t kDiskSeekUnits = 2500;
constexpr std::uint64_t kDiskUnitsPerKib = 10000;
// A continuously polling logger on a timeshared CPU issues this many
// chardev read() calls per timeslice, data or not.
constexpr int kPollBudget = 85;

workload::PostMarkConfig pm_cfg() {
  workload::PostMarkConfig cfg;
  cfg.file_count = 300;
  cfg.transactions = 3000;
  return cfg;
}

enum class LoggerMode {
  kNone,
  kKernelOnly,
  kRuleFiltered,  // selective instrumentation: rules suppress everything
  kPollNoDisk,
  kPollDisk,
  kBlocking,
};

struct RunResult {
  double elapsed = 0;
  std::uint64_t lock_hits = 0;
  std::uint64_t events_logged = 0;
  std::uint64_t logger_reads = 0;
  std::uint64_t empty_reads = 0;
};

RunResult run(LoggerMode mode) {
  fs::MemFs fs;
  // One dcache shard: the paper instrumented the single global
  // dcache_lock, so E6 runs the SMP build in its 1-shard (paper) mode.
  uk::KernelConfig cfg;
  cfg.dcache_shards = 1;
  uk::Kernel kernel(fs, cfg);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc pm_proc(kernel, "postmark");
  uk::Proc log_proc(kernel, "logger");

  evmon::Dispatcher dispatcher;
  evmon::RingBuffer ring(1 << 16);
  evmon::SpinlockMonitor monitor;  // the in-kernel callback
  evmon::Chardev dev(ring);

  // Chardev reads are system calls: charge a crossing per read().
  dev.set_crossing_hook([&] {
    kernel.boundary().enter_kernel(log_proc.task());
    kernel.boundary().exit_kernel(log_proc.task());
  });

  evmon::RuleSet rules;
  if (mode != LoggerMode::kNone) {
    monitor.attach(dispatcher);
    dispatcher.attach_ring(&ring);
    if (mode == LoggerMode::kRuleFiltered) {
      // The §3.5 rule language: nothing matches, so every event is
      // suppressed at the dispatch point -- instrumentation compiled in
      // but turned off.
      (void)rules.parse("monitor spinlock nothing_matches_this\n");
      dispatcher.set_filter([&rules](const evmon::Event& e) {
        return rules.allows(e);
      });
    }
    dispatcher.install_sync_bridge();
  }

  int log_fd = -1;
  if (mode == LoggerMode::kPollDisk) {
    log_fd = log_proc.open("/events.log", fs::kOWrOnly | fs::kOCreat);
  }

  RunResult res;
  std::uint64_t base_locks = kernel.vfs().dcache().lock().acquisitions();

  // The logger's timeslice: what it does between PostMark transactions.
  evmon::Event batch[256];
  char line[96];
  std::string flush_buf;
  auto logger_slice = [&] {
    if (mode == LoggerMode::kNone || mode == LoggerMode::kKernelOnly) return;
    int polls = 0;
    for (;;) {
      std::size_t n = dev.read(batch, 256, evmon::ReadMode::kPolling);
      ++polls;
      for (std::size_t i = 0; i < n; ++i) {
        // Format the record (user-mode work); stdio buffers the lines.
        int len = std::snprintf(line, sizeof(line), "%p %d %s:%d\n",
                                batch[i].object, batch[i].type,
                                batch[i].file ? batch[i].file : "?",
                                batch[i].line);
        log_proc.charge_user(12);
        if (mode == LoggerMode::kPollDisk) {
          flush_buf.append(line, static_cast<std::size_t>(len));
        }
      }
      bool drained = n == 0;
      if (mode == LoggerMode::kBlocking) {
        if (drained) break;  // blocking readers sleep instead of re-polling
      } else if (drained && polls >= kPollBudget) {
        break;  // slice spent spinning on an empty device
      }
    }
    // End of slice: the disk logger flushes its stdio buffer.
    if (mode == LoggerMode::kPollDisk && log_fd >= 0 && !flush_buf.empty()) {
      log_proc.write(log_fd, flush_buf.data(), flush_buf.size());
      kernel.engine().alu(kDiskSeekUnits +
                          kDiskUnitsPerKib * flush_buf.size() / 1024);
      flush_buf.clear();
    }
  };

  res.elapsed = bench::time_once([&] {
    // Single-CPU timesharing: the logger gets a slice every ~64 events
    // (PostMark has no step API, so the slice pump piggybacks on a
    // dispatcher callback; a guard keeps the logger's own syscalls --
    // which also fire dcache events -- from re-entering the pump).
    evmon::Dispatcher::CallbackId pump_id = 0;
    std::uint64_t event_count = 0;
    bool pumping = false;
    if (mode != LoggerMode::kNone && mode != LoggerMode::kKernelOnly) {
      pump_id = dispatcher.register_callback([&](const evmon::Event&) {
        if (pumping) return;
        if (++event_count % 64 == 0) {
          pumping = true;
          logger_slice();
          pumping = false;
        }
      });
    }
    workload::PostMark bench_pm(pm_cfg());
    workload::PostMarkReport rep = bench_pm.run(pm_proc);
    if (rep.errors != 0) std::abort();
    logger_slice();  // final drain
    if (pump_id != 0) dispatcher.unregister_callback(pump_id);
  });

  if (mode != LoggerMode::kNone) {
    dispatcher.remove_sync_bridge();
    dispatcher.set_filter(nullptr);
    monitor.finish();
    if (!monitor.anomalies().empty()) std::abort();
  }
  if (log_fd >= 0) log_proc.close(log_fd);

  res.lock_hits = kernel.vfs().dcache().lock().acquisitions() - base_locks;
  res.events_logged = ring.popped();
  res.logger_reads = dev.reads();
  res.empty_reads = dev.empty_reads();
  return res;
}

}  // namespace

int main() {
  bench::print_title("E6", "event monitor under PostMark (paper: kernel "
                           "+3.9%; polling logger w/ disk +103%; no disk "
                           "+61%)");

  // Best of three fresh runs per configuration (noise control).
  auto best = [](LoggerMode mode) {
    RunResult best_r = run(mode);
    for (int i = 0; i < 2; ++i) {
      RunResult r = run(mode);
      if (r.elapsed < best_r.elapsed) best_r = r;
    }
    return best_r;
  };
  RunResult none = best(LoggerMode::kNone);
  RunResult kernel_only = best(LoggerMode::kKernelOnly);
  RunResult filtered = best(LoggerMode::kRuleFiltered);
  RunResult poll_nodisk = best(LoggerMode::kPollNoDisk);
  RunResult poll_disk = best(LoggerMode::kPollDisk);
  RunResult blocking = best(LoggerMode::kBlocking);

  bench::JsonWriter json("bench_evmon");
  auto row = [&](const char* name, const RunResult& r, const char* paper) {
    std::printf("%-30s %10.3f %+9.1f%%   %s\n", name, r.elapsed,
                100.0 * (bench::slowdown(none.elapsed, r.elapsed) - 1.0),
                paper);
    json.record(name, r.elapsed, "s", bench::Better::kLower);
  };
  std::printf("%-30s %10s %10s   %s\n", "configuration", "elapsed(s)",
              "overhead", "paper");
  row("vanilla (no instrumentation)", none, "--");
  row("dispatcher + ring buffer", kernel_only, "+3.9%");
  row("rules suppress all events", filtered, "(selective instr., Sec 3.5)");
  row("user logger, polling, no disk", poll_nodisk, "+61%");
  row("user logger, polling + disk", poll_disk, "+103%");
  row("user logger, blocking reads", blocking, "(proposed fix)");

  std::printf("  dcache_lock hits           : %" PRIu64
              " over the run (paper: ~8,805/s)\n", kernel_only.lock_hits);
  std::printf("  events drained by logger   : %" PRIu64
              ", chardev reads %" PRIu64 " (empty %" PRIu64 ")\n",
              poll_nodisk.events_logged, poll_nodisk.logger_reads,
              poll_nodisk.empty_reads);
  return 0;
}
