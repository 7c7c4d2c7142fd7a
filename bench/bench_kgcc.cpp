// E7 (paper §3.4): KGCC-instrumented filesystem overhead.
//
// "We compared the performance of a KGCC-compiled Reiserfs module to a
// vanilla GCC-compiled module on Linux 2.6.7. We ran a CPU-intensive
// benchmark, an Am-utils compile. The system time for KGCC-compiled
// Reiserfs was 33% greater than vanilla GCC, while the elapsed time was
// 20% greater. We also ran the I/O-intensive benchmark PostMark. In this
// case, the system time was 14 times greater for KGCC-compiled Reiserfs
// while the elapsed time was 3 times greater."
//
// Vanilla = JournalFs<RawPtrPolicy> (plain pointers); KGCC =
// JournalFs<BccPtrPolicy> (every dereference and pointer-arithmetic step
// goes through the bounds-checking runtime's splay-tree object map).
// "System" = wall time inside system calls; "elapsed" = total wall time.
#include <cinttypes>

#include "bcc/checked_ptr.hpp"
#include "bench/common.hpp"
#include "fs/journalfs.hpp"
#include "uk/userlib.hpp"
#include "workload/amutils.hpp"
#include "workload/postmark.hpp"

namespace {

using namespace usk;

struct RunResult {
  double elapsed = 0;
  double system = 0;  // seconds inside syscalls
};

template <typename Policy>
RunResult run_build() {
  fs::JournalFs<Policy> jfs(2048, 1 << 14, 512);
  uk::Kernel kernel(jfs);
  jfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "make");
  workload::AmUtilsConfig cfg;
  cfg.source_files = 60;
  cfg.header_files = 15;
  workload::AmUtilsBuild build(cfg);
  build.populate(proc);
  std::uint64_t sys0 = proc.task().kernel_wall_ns;
  RunResult r;
  r.elapsed = bench::time_once([&] {
    workload::AmUtilsReport rep = build.build(proc);
    if (rep.errors != 0) std::abort();
  });
  r.system = static_cast<double>(proc.task().kernel_wall_ns - sys0) * 1e-9;
  return r;
}

template <typename Policy>
RunResult run_postmark() {
  fs::JournalFs<Policy> jfs(2048, 1 << 14, 512);
  uk::Kernel kernel(jfs);
  jfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "postmark");
  workload::PostMarkConfig cfg;
  cfg.file_count = 120;
  cfg.transactions = 800;
  std::uint64_t sys0 = proc.task().kernel_wall_ns;
  RunResult r;
  r.elapsed = bench::time_once([&] {
    workload::PostMark pm(cfg);
    workload::PostMarkReport rep = pm.run(proc);
    if (rep.errors != 0) std::abort();
  });
  r.system = static_cast<double>(proc.task().kernel_wall_ns - sys0) * 1e-9;
  return r;
}

void report(const char* workload_name, const RunResult& vanilla,
            const RunResult& kgcc, const char* paper) {
  std::printf("%-12s %10.3f %10.3f %8.2fx | %10.4f %10.4f %8.2fx   %s\n",
              workload_name, vanilla.elapsed, kgcc.elapsed,
              bench::slowdown(vanilla.elapsed, kgcc.elapsed), vanilla.system,
              kgcc.system, bench::slowdown(vanilla.system, kgcc.system),
              paper);
}

}  // namespace

int main() {
  bench::print_title("E7", "KGCC-instrumented JournalFs (paper: build sys "
                           "+33%/elapsed +20%; PostMark sys 14x/elapsed 3x)");
  std::printf("%-12s %10s %10s %9s | %10s %10s %9s\n", "workload",
              "van-ela(s)", "kgcc-ela", "ratio", "van-sys(s)", "kgcc-sys",
              "ratio");

  // Each record is the wall seconds of one workload run.
  bench::JsonWriter json("bench_kgcc");
  bcc::Runtime& rt = bcc::Runtime::instance();

  RunResult bv = run_build<fs::RawPtrPolicy>();
  std::uint64_t checks0 = rt.stats().checks;
  RunResult bk = run_build<bcc::BccPtrPolicy>();
  std::uint64_t build_checks = rt.stats().checks - checks0;
  report("am-utils", bv, bk, "paper: elapsed +20%, sys +33%");

  RunResult pv = run_postmark<fs::RawPtrPolicy>();
  checks0 = rt.stats().checks;
  RunResult pk = run_postmark<bcc::BccPtrPolicy>();
  std::uint64_t pm_checks = rt.stats().checks - checks0;
  report("postmark", pv, pk, "paper: elapsed 3x, sys 14x");

  json.record("amutils-vanilla", bv.elapsed, "s", bench::Better::kLower);
  json.record("amutils-kgcc", bk.elapsed, "s", bench::Better::kLower);
  json.record("postmark-vanilla", pv.elapsed, "s", bench::Better::kLower);
  json.record("postmark-kgcc", pk.elapsed, "s", bench::Better::kLower);

  std::printf("  runtime checks executed    : build %" PRIu64
              ", postmark %" PRIu64 "\n", build_checks, pm_checks);
  std::printf("  map consults / cache hits  : %" PRIu64 " / %" PRIu64 "\n",
              rt.stats().map_consults, rt.stats().cache_hits);
  if (!rt.errors().empty()) std::abort();  // correct fs code must be clean
  bench::print_note("our substrate's system time is entirely the "
                    "instrumented fs, so the build's system ratio exceeds "
                    "the paper's +33% (their compile spent most system time "
                    "in uninstrumented subsystems); the metadata-vs-CPU "
                    "contrast is preserved");
  return 0;
}
