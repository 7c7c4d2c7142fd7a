// SMP scaling: parallel syscall dispatch over {global vs sharded dcache}
// x {shared vs per-CPU kmalloc}.
//
// The paper (§3.3) measured the global dcache_lock being hit 8,805
// times/s under PostMark on one CPU and could only *observe* the
// contention. This benchmark turns the observation into the fix's
// evaluation: N threads run a PostMark-style metadata loop (stat-heavy,
// with open/close and create/unlink churn plus Wrapfs-style ~80-byte
// kmalloc traffic per call, §3.2) against one shared Kernel, and the four
// configurations differ only in lock granularity:
//
//   global+shared    1 dcache shard, shared kmalloc free lists (the
//                    paper's single-lock kernel -- the baseline)
//   sharded+shared   16 dcache shards, shared kmalloc
//   global+percpu    1 dcache shard, per-CPU kmalloc magazines
//   sharded+percpu   16 shards + magazines (the SMP build)
//
// Two metrics are reported per run:
//
//   wall ops/s   measured wall-clock throughput on this host. On a host
//                with >= `threads` CPUs this alone shows the scaling; on
//                an oversubscribed host every config serialises onto the
//                same cores and wall throughput converges.
//
//   smp ops/s    the usk SMP model: all syscall work is *executed* and
//                *measured* for real (the usk way -- costs are real CPU
//                work, never sleeps), then the measured work is scheduled
//                onto `threads` virtual CPUs subject to the measured lock
//                serialisation: a lock's critical sections cannot overlap,
//                so each lock contributes a serial term
//                    acquisitions(lock) x calibrated cs time,
//                and modelled elapsed = max(per-CPU work, hottest lock's
//                serial term). Acquisition counts come from the
//                instrumented SpinLocks; cs times are calibrated by timing
//                the actual critical sections single-threaded at startup.
//
// Costs are scaled so the dcache critical section (the simulated hash
// chain walk under the shard lock -- exactly why dcache_lock was the
// paper's hottest lock) dominates the syscall path; this is the
// adversarial configuration for a global lock and the one the paper's E6
// numbers point at.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "sched/scheduler.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

constexpr int kFilesPerDir = 64;
constexpr int kOpsPerThread = 60000;
constexpr int kMaxThreads = 64;
// ALU units executed per dcache op while holding its shard lock (simulated
// hash-chain walk; see Dcache::set_hold_work). High enough that the dcache
// critical section dominates the syscall path, as in the paper's PostMark
// runs where dcache_lock was the top lock.
constexpr std::uint32_t kDcacheHoldWork = 1500;

struct Config {
  const char* name;
  std::size_t dcache_shards;
  bool kmalloc_percpu;
};

constexpr Config kConfigs[] = {
    {"global+shared", 1, false},
    {"sharded+shared", fs::Dcache::kDefaultShards, false},
    {"global+percpu", 1, true},
    {"sharded+percpu", fs::Dcache::kDefaultShards, true},
};

struct RunOut {
  double elapsed = 0;        // measured wall clock on this host
  double wall_ops = 0;       // ops / elapsed
  double smp_elapsed = 0;    // modelled elapsed on `threads` virtual CPUs
  double smp_ops = 0;        // ops / smp_elapsed
  double dcache_serial = 0;  // hottest shard's serial term (s)
  double depot_serial = 0;   // depot lock's serial term (s)
  std::uint64_t dcache_spins = 0;
  std::uint64_t depot_spins = 0;
};

/// Calibrated single-threaded critical-section times (seconds).
struct CsTimes {
  double dcache = 0;  // one locked dcache op (hash-chain walk + map op)
  double depot = 0;   // one locked depot op (alloc or free of ~80 bytes)
};

/// Time the dcache critical section: a hit lookup is key construction
/// (outside the lock) + the locked chain walk + LRU touch; with
/// kDcacheHoldWork the locked part dominates.
CsTimes calibrate() {
  CsTimes cs;
  {
    fs::Dcache dc(64, 1);
    dc.set_hold_work(kDcacheHoldWork);
    dc.insert(1, "probe", 2);
    constexpr int kM = 50000;
    cs.dcache = bench::time_once([&] {
                  for (int i = 0; i < kM; ++i) dc.lookup(1, "probe");
                }) /
                kM;
  }
  {
    // Legacy-mode alloc/free runs entirely under the depot lock, so the
    // call time is the critical-section time.
    vm::PhysMem pm(1 << 10);
    mm::Kmalloc km(pm, /*per_cpu_cache=*/false);
    constexpr int kM = 50000;
    double pair = bench::time_once([&] {
                    for (int i = 0; i < kM; ++i) {
                      mm::BufferHandle h = USK_ALLOC(km, 80);
                      km.free(h);
                    }
                  }) /
                  kM;
    cs.depot = pair / 2.0;
  }
  return cs;
}

/// One worker's slice of the metadata loop: mostly stat (pure dcache +
/// getattr), some open/close, some create/unlink churn. Every call is a
/// full syscall through the boundary; each iteration also does a pair of
/// ~80-byte kmalloc allocations, the mean request size the paper measured
/// for Wrapfs (§3.2).
void worker(uk::Kernel& kernel, uk::Proc& proc, int tid, int ops) {
  char path[64];
  fs::StatBuf st;
  mm::Kmalloc& km = kernel.kmalloc();
  std::uint32_t x = 0x9E3779B9u * static_cast<std::uint32_t>(tid + 1);
  for (int i = 0; i < ops; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    int file = static_cast<int>(x % kFilesPerDir);
    // Wrapfs-style allocator traffic riding on the syscall.
    mm::BufferHandle b1 = USK_ALLOC(km, 32 + (x & 63));
    mm::BufferHandle b2 = USK_ALLOC(km, 96);
    int kind = static_cast<int>(x % 20);
    if (kind < 13) {  // 65%: stat
      std::snprintf(path, sizeof(path), "/t%d/f%d", tid, file);
      proc.stat(path, &st);
    } else if (kind < 18) {  // 25%: open + close
      std::snprintf(path, sizeof(path), "/t%d/f%d", tid, file);
      int fd = proc.open(path, fs::kORdOnly);
      if (fd >= 0) proc.close(fd);
    } else {  // 10%: create + unlink (namespace churn, invalidations)
      std::snprintf(path, sizeof(path), "/t%d/x%d", tid, file);
      int fd = proc.open(path, fs::kOWrOnly | fs::kOCreat);
      if (fd >= 0) proc.close(fd);
      proc.unlink(path);
    }
    km.free(b2);
    km.free(b1);
  }
}

RunOut run(const Config& c, int threads, const CsTimes& cs,
           int ops_per_thread) {
  fs::MemFs fs;
  uk::KernelConfig kcfg;
  kcfg.dcache_shards = c.dcache_shards;
  kcfg.kmalloc_per_cpu_cache = c.kmalloc_percpu;
  // Scaled-down boundary/fs costs: keep the real memcpy/map work but
  // shrink the simulated ALU padding so lock behaviour dominates.
  kcfg.boundary = uk::CostModel{30, 1, 4, 8};
  uk::Kernel kernel(fs, kcfg);
  fs.set_cost_hook(kernel.charge_hook());
  // Hash-chain-walk cost held under the dcache shard lock: this is what
  // made dcache_lock the paper's hottest lock -- the cycles are spent
  // inside the critical section, so a global lock serialises them.
  kernel.vfs().dcache().set_hold_work(kDcacheHoldWork);
  fs::FsCosts costs;
  costs.lookup = 5;
  costs.create = 15;
  costs.remove = 10;
  costs.rename = 15;
  costs.getattr = 8;
  costs.readdir_base = 5;
  costs.readdir_per_entry = 1;
  costs.data_per_kib = 5;
  costs.truncate = 5;
  fs.set_costs(costs);

  // Namespace setup (single-threaded): per-thread top-level directories,
  // as PostMark gives each process its own working directory. Keys hash
  // per thread, so no dcache entry is hot across threads -- the remaining
  // cross-thread cost is purely the lock granularity under test.
  uk::Proc setup(kernel, "setup");
  char path[64];
  for (int t = 0; t < threads; ++t) {
    std::snprintf(path, sizeof(path), "/t%d", t);
    setup.mkdir(path);
    for (int f = 0; f < kFilesPerDir; ++f) {
      std::snprintf(path, sizeof(path), "/t%d/f%d", t, f);
      int fd = setup.open(path, fs::kOWrOnly | fs::kOCreat);
      if (fd >= 0) setup.close(fd);
    }
  }

  // One process (task) per dispatching thread.
  std::vector<std::unique_ptr<uk::Proc>> procs;
  procs.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    procs.push_back(
        std::make_unique<uk::Proc>(kernel, "smp" + std::to_string(t)));
  }

  fs::Dcache& dc = kernel.vfs().dcache();
  std::vector<std::uint64_t> shard_acq0(dc.shard_count());
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    shard_acq0[s] = dc.lock(s).acquisitions();
  }
  std::uint64_t dc_spin0 = dc.lock_contended_spins();
  std::uint64_t dp_acq0 = kernel.kmalloc().depot_lock().acquisitions();
  std::uint64_t dp_spin0 = kernel.kmalloc().depot_lock().contended_spins();

  RunOut out;
  out.elapsed = bench::time_once([&] {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(
          [&, t] { worker(kernel, *procs[t], t, ops_per_thread); });
    }
    for (auto& w : workers) w.join();
  });

  const double total_ops = static_cast<double>(threads) * ops_per_thread;
  out.wall_ops = total_ops / out.elapsed;
  out.dcache_spins = dc.lock_contended_spins() - dc_spin0;
  out.depot_spins = kernel.kmalloc().depot_lock().contended_spins() - dp_spin0;

  // --- SMP model: schedule the measured work on `threads` virtual CPUs.
  // Each lock's critical sections are serial; everything else is parallel.
  std::uint64_t hottest_shard = 0;
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    hottest_shard =
        std::max(hottest_shard, dc.lock(s).acquisitions() - shard_acq0[s]);
  }
  out.dcache_serial = static_cast<double>(hottest_shard) * cs.dcache;
  std::uint64_t depot_acq = kernel.kmalloc().depot_lock().acquisitions() -
                            dp_acq0;
  out.depot_serial = static_cast<double>(depot_acq) * cs.depot;
  // On one saturated host CPU, wall clock == total executed work, so
  // wall/threads is the per-virtual-CPU share (workers are symmetric).
  const double per_cpu = out.elapsed / threads;
  out.smp_elapsed = std::max({per_cpu, out.dcache_serial, out.depot_serial});
  out.smp_ops = total_ops / out.smp_elapsed;
  return out;
}

// --- scheduler sections ------------------------------------------------------
//
// The PR-9 scheduler rides the same binary: pooled dispatch (runqueues +
// stealing), the park/wake ping-pong (event-driven wakeups, zero
// interval-polling timeouts), and the §2.3 watchdog on a runaway task.

/// Pooled dispatch: tasks skewed onto 2 home runqueues, 8 workers drain
/// with pick_next -- stealing is what keeps workers 2..7 busy.
void bench_runqueue(bench::JsonWriter& json, bool quick) {
  constexpr int kWorkers = 8;
  const int tasks_n = quick ? 4000 : 20000;
  sched::Scheduler s(/*quantum=*/32, /*cpus=*/kWorkers);
  std::vector<sched::Task*> tasks;
  tasks.reserve(static_cast<std::size_t>(tasks_n));
  for (int i = 0; i < tasks_n; ++i) {
    sched::Task& t = s.spawn("rq" + std::to_string(i));
    s.bind(t, static_cast<std::size_t>(i % 2));
    tasks.push_back(&t);
  }
  for (sched::Task* t : tasks) s.enqueue(*t);
  std::atomic<int> picked{0};
  double elapsed = bench::time_once([&] {
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        while (picked.load(std::memory_order_relaxed) < tasks_n) {
          sched::Task* t = s.pick_next();
          if (t == nullptr) {
            std::this_thread::yield();
            continue;
          }
          picked.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : workers) w.join();
  });
  const double steals = static_cast<double>(s.stats().steals);
  std::printf("  runqueues: %d tasks over %d workers (2 home queues): "
              "%.0f picks/s, %.0f steals, %" PRIu64 " migrations\n",
              tasks_n, kWorkers, tasks_n / elapsed, steals,
              s.stats().migrations.load());
  json.record("rq-picks-8t", tasks_n / elapsed, "ops/s",
              bench::Better::kHigher);
  json.record("rq-steals-8t", steals, "count", bench::Better::kHigher);
}

/// Two tasks ping-pong through two WaitQueues: every round is a
/// prepare/wake/park handshake, every wakeup is event-driven. The
/// timeouts delta over the WHOLE bench is recorded at the end of main as
/// park-timeout-wakeups: only user-requested deadlines may tick it, and
/// this binary requests none.
void bench_parkwake(bench::JsonWriter& json, bool quick) {
  const int rounds = quick ? 20000 : 100000;
  sched::Scheduler s(/*quantum=*/32, /*cpus=*/2);
  sched::WaitQueue wqa, wqb;
  double elapsed = bench::time_once([&] {
    std::thread b([&] {
      s.enter(s.spawn("pong"));
      for (int i = 0; i < rounds; ++i) {
        sched::WaitQueue::Token tok = wqb.prepare();
        wqa.wake_all();
        (void)s.block(wqb, tok);
      }
      wqa.wake_all();  // release the last park
    });
    s.enter(s.spawn("ping"));
    for (int i = 0; i < rounds; ++i) {
      sched::WaitQueue::Token tok = wqa.prepare();
      wqb.wake_all();
      (void)s.block(wqa, tok);
    }
    wqb.wake_all();
    b.join();
  });
  std::printf("  park/wake ping-pong: %.0f roundtrips/s (%d rounds, "
              "no interval re-poll)\n",
              rounds / elapsed, rounds);
  json.record("parkwake-roundtrips", rounds / elapsed, "ops/s",
              bench::Better::kHigher);
}

/// The paper's §2.3 defence, unchanged by the new scheduler: a task that
/// burns kernel budget without yielding is killed at a schedule-out.
void bench_watchdog(bench::JsonWriter& json) {
  sched::Scheduler s(/*quantum=*/2);
  sched::Task& t = s.enter(s.spawn("runaway"));
  t.set_kernel_budget(10'000);
  t.enter_kernel();
  int points = 0;
  for (;;) {
    t.charge_kernel(100);
    ++points;
    if (!s.preempt_point()) break;  // watchdog kill
  }
  const double kills = static_cast<double>(s.stats().watchdog_kills);
  std::printf("  watchdog: runaway task killed after %d preempt points "
              "(%.0f kill)\n",
              points, kills);
  json.record("watchdog-kills-runaway", kills, "count",
              bench::Better::kHigher);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::print_title(
      "SMP", "parallel dispatch scaling: dcache sharding x per-CPU kmalloc");
  CsTimes cs = calibrate();
  std::printf("  host CPUs: %u | calibrated cs: dcache %.0f ns, depot %.0f "
              "ns (smp ops/s = measured work on N virtual CPUs, lock "
              "critical sections serialised)\n",
              std::thread::hardware_concurrency(), cs.dcache * 1e9,
              cs.depot * 1e9);

  bench::JsonWriter json("bench_smp_scaling");
  const std::uint64_t timeouts0 = sched::waitqueue_stats().timeouts;
  // Total work is capped at 8x kOpsPerThread: wider runs shrink the
  // per-thread slice so 64 vCPUs costs what 8 did.
  const int thread_counts[] = {1, 2, 4, 8, 16, 32, 64};

  std::printf("\n%-16s %8s %12s %12s %12s %13s %13s\n", "config", "threads",
              "wall ops/s", "smp ops/s", "elapsed(s)", "dcache ser(s)",
              "depot ser(s)");
  double ops_8t[4] = {0, 0, 0, 0};
  double ops_1t[4] = {0, 0, 0, 0};
  for (std::size_t ci = 0; ci < std::size(kConfigs); ++ci) {
    const Config& c = kConfigs[ci];
    for (int threads : thread_counts) {
      if (threads > kMaxThreads) continue;
      // Quick mode still emits the 8-thread rows: the speedup gate below
      // is checked by run_tier1.sh sched against the --quick JSON.
      if (quick && threads > 8) continue;
      const int base = quick ? kOpsPerThread / 4 : kOpsPerThread;
      const int ops = threads <= 8 ? base : base * 8 / threads;
      RunOut r = run(c, threads, cs, ops);
      std::printf("%-16s %8d %12.0f %12.0f %12.3f %13.3f %13.3f\n", c.name,
                  threads, r.wall_ops, r.smp_ops, r.elapsed, r.dcache_serial,
                  r.depot_serial);
      json.record(std::string(c.name) + "-" + std::to_string(threads) + "t",
                  r.smp_ops, "ops/s", bench::Better::kHigher);
      if (threads == 1) ops_1t[ci] = r.smp_ops;
      if (threads == 8) ops_8t[ci] = r.smp_ops;
    }
    std::printf("\n");
  }

  // Headline numbers: the SMP build vs the paper's single-lock kernel.
  if (ops_8t[0] > 0 && ops_8t[3] > 0) {
    const double speedup = ops_8t[3] / ops_8t[0];
    std::printf("  8-thread smp speedup, sharded+percpu vs global+shared: "
                "%.2fx (target >= 6x)\n",
                speedup);
    json.record("smp-speedup-8t", speedup, "ratio", bench::Better::kHigher);
  }
  if (ops_1t[0] > 0 && ops_1t[3] > 0) {
    std::printf("  1-thread cost of SMP structures: %.1f%% (sharded+percpu "
                "vs global+shared)\n",
                100.0 * (1.0 - ops_1t[3] / ops_1t[0]));
  }

  std::printf("\n");
  bench_runqueue(json, quick);
  bench_parkwake(json, quick);
  bench_watchdog(json);

  // Event-driven acceptance: nothing in this binary asked for a deadline,
  // so a single timeout here would mean an interval re-poll crept back in.
  const double timeout_wakeups =
      static_cast<double>(sched::waitqueue_stats().timeouts - timeouts0);
  std::printf("  park timeouts over the whole bench: %.0f (must be 0: all "
              "wakeups are event-driven)\n",
              timeout_wakeups);
  json.record("park-timeout-wakeups", timeout_wakeups, "count",
              bench::Better::kLower);
  return 0;
}
