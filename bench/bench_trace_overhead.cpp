// T1: ktrace overhead -- the observability tax.
//
// Two claims to prove:
//
//  1. DISABLED tracepoints are free (<1% on a null syscall). A disabled
//     site is one relaxed atomic load + predicted branch; this bench
//     measures that check directly, counts how many checks one getpid()
//     crosses (by enabling the tracer and counting the events one getpid
//     emits), and reports the product against the measured null-syscall
//     time. It also A/Bs the same loop disabled vs enabled.
//
//  2. ENABLED tracing is lossless under parallel dispatch. 4 threads
//     hammer syscalls on their own CPUs; afterwards the merged drain must
//     equal the per-CPU emit counters exactly (drained == emitted -
//     dropped, dropped == 0 with adequately sized rings) and the sequence
//     numbers must come out sorted.
#include <cinttypes>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "trace/ktrace.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

constexpr int kNullCalls = 200000;
constexpr int kCheckLoops = 20000000;

}  // namespace

int main() {
  bench::print_title("T1", "ktrace overhead: disabled tracepoint cost and "
                           "lossless enabled tracing");
  bench::JsonWriter json("bench_trace_overhead");

  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  rootfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "trace-bench");

  // --- 1a. per-check cost of a disabled tracepoint -------------------------
  trace::ktrace().disable();
  volatile unsigned sink = 0;
  double check_s = bench::time_best(3, [&] {
    unsigned acc = 0;
    for (int i = 0; i < kCheckLoops; ++i) {
      acc += static_cast<unsigned>(trace::enabled());
    }
    sink = sink + acc;
  });
  const double check_ns = check_s * 1e9 / kCheckLoops;

  // --- 1b. how many tracepoint checks does one getpid() cross? -------------
  // Enable briefly and count the events a single getpid emits: every
  // emitted event was one enabled check, and the disabled path checks the
  // same sites.
  trace::ktrace().reset();
  trace::ktrace().enable();
  proc.getpid();
  trace::ktrace().disable();
  const std::uint64_t checks_per_call = trace::ktrace().emitted();
  (void)trace::ktrace().drain();

  // --- 1c. null syscall with tracing disabled ------------------------------
  trace::ktrace().reset();
  const double null_ns = bench::null_syscall_ns(proc, kNullCalls);
  const double overhead_pct =
      100.0 * (static_cast<double>(checks_per_call) * check_ns) / null_ns;

  std::printf("%-34s %12.3f ns\n", "disabled tracepoint check", check_ns);
  std::printf("%-34s %12" PRIu64 "\n", "checks per null syscall",
              checks_per_call);
  std::printf("%-34s %12.1f ns\n", "null syscall (tracing off)", null_ns);
  std::printf("%-34s %12.3f %%   %s (budget 1%%)\n", "disabled overhead",
              overhead_pct, overhead_pct < 1.0 ? "PASS" : "FAIL");
  json.record("disabled_check_ns", 1, 1e9 / check_ns, check_s);
  json.record("null_syscall_disabled", 1, 1e9 / null_ns,
              null_ns * kNullCalls / 1e9);

  // --- 1d. A/B: the same loop with tracing enabled -------------------------
  trace::ktrace().reset();
  trace::ktrace().configure(1 << 16);
  trace::ktrace().enable();
  const double null_on_ns = bench::null_syscall_ns(proc, 20000);
  trace::ktrace().disable();
  trace::ktrace().reset();
  std::printf("%-34s %12.1f ns  (x%.2f)\n", "null syscall (tracing on)",
              null_on_ns, null_on_ns / null_ns);
  json.record("null_syscall_enabled", 1, 1e9 / null_on_ns,
              null_on_ns * 20000 / 1e9);

  // --- 2. lossless enabled tracing under 4-thread dispatch -----------------
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 4000;
  trace::ktrace().configure(1 << 16);  // >> events per CPU: no drops
  trace::ktrace().enable();

  double par_s = bench::time_once([&] {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&kernel, t] {
        // Appended, not "w" + std::to_string(t): GCC 12 at -O3 misreads
        // that front insert as an overlapping memcpy (-Wrestrict).
        std::string name = "w";
        name += std::to_string(t);
        uk::Proc p(kernel, name);
        std::string path = "/t" + std::to_string(t);
        int fd = p.open(path.c_str(), fs::kOWrOnly | fs::kOCreat);
        char block[256] = {};
        fs::StatBuf st;
        for (int i = 0; i < kCallsPerThread; ++i) {
          switch (i % 4) {
            case 0: p.getpid(); break;
            case 1: p.write(fd, block, sizeof block); break;
            case 2: p.stat(path.c_str(), &st); break;
            case 3: p.lseek(fd, 0, fs::kSeekSet); break;
          }
        }
        p.close(fd);
      });
    }
    for (auto& w : workers) w.join();
  });
  trace::ktrace().disable();

  const std::uint64_t emitted = trace::ktrace().emitted();
  const std::uint64_t dropped = trace::ktrace().dropped();
  std::vector<trace::TraceEvent> events = trace::ktrace().drain();
  bool sorted = true;
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i - 1].seq >= events[i].seq) sorted = false;
  }
  const bool lossless = dropped == 0 && events.size() == emitted - dropped;

  std::printf("%-34s %12" PRIu64 "\n", "events emitted (4 threads)", emitted);
  std::printf("%-34s %12" PRIu64 "\n", "events dropped", dropped);
  std::printf("%-34s %12zu\n", "events drained", events.size());
  std::printf("%-34s %12s\n", "drain sorted by seq",
              sorted ? "yes" : "NO");
  std::printf("%-34s %12s\n", "lossless (drained == emitted)",
              lossless && sorted ? "PASS" : "FAIL");
  json.record("parallel_traced_syscalls", kThreads,
              static_cast<double>(kThreads) * kCallsPerThread / par_s, par_s);
  trace::ktrace().reset();

  bench::print_note("disabled overhead = checks/call x check cost vs the "
                    "measured null syscall; lossless = merged drain equals "
                    "the per-CPU emit counters with zero drops");
  return (overhead_pct < 1.0 && lossless && sorted) ? 0 : 1;
}
