// E2 (paper §2.2): readdirplus what-if over an interactive workload.
//
// "we logged the system calls on a system under average interactive user
// load for approximately 15 minutes. We then calculated the expected
// savings if readdirplus were used. The total amount of data transfered
// between user and kernel space was 51,807,520 bytes, and we estimate that
// if readdirplus were used we would only transfer 32,250,041 bytes. We
// would also do far fewer system calls -- 17,251 instead of 171,975."
//
// We cannot replay the authors' 2005 desktop, so we run a synthetic
// interactive session of comparable scale (~170k audited syscalls whose
// mix is dominated by directory sweeps, i.e., file managers and shells)
// and run the same what-if analysis over the real audit records.
#include <cinttypes>

#include "bench/common.hpp"
#include "consolidation/graph.hpp"
#include "uk/userlib.hpp"
#include "workload/tracegen.hpp"

int main() {
  using namespace usk;
  bench::print_title("E2", "interactive-trace readdirplus savings (paper: "
                           "171,975 -> 17,251 calls; 51.8 MB -> 32.25 MB)");

  fs::MemFs fs;
  uk::KernelConfig kcfg;
  kcfg.dcache_capacity = 1 << 15;
  uk::Kernel kernel(fs, kcfg);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "desktop");

  workload::InteractiveConfig cfg;
  cfg.dirs = 40;
  cfg.files_per_dir = 150;
  cfg.dir_sweeps = 1000;
  cfg.config_reads = 4000;
  cfg.log_appends = 2500;
  workload::populate_tree(proc, cfg);

  kernel.audit().enable();
  double elapsed = bench::time_once([&] {
    workload::run_interactive(proc, cfg);
  });
  kernel.audit().disable();

  const auto& recs = kernel.audit().records();
  consolidation::WhatIfSavings s =
      consolidation::readdirplus_whatif(recs);

  std::printf("  session length             : %.2f s simulated-kernel wall\n",
              elapsed);
  std::printf("%28s %15s %15s %9s\n", "", "classic", "readdirplus",
              "ratio");
  std::printf("%28s %15" PRIu64 " %15" PRIu64 " %8.3f\n",
              "system calls", s.calls_before, s.calls_after,
              static_cast<double>(s.calls_after) /
                  static_cast<double>(s.calls_before));
  std::printf("%28s %15" PRIu64 " %15" PRIu64 " %8.3f\n",
              "user<->kernel bytes", s.bytes_before, s.bytes_after,
              static_cast<double>(s.bytes_after) /
                  static_cast<double>(s.bytes_before));
  std::printf("  paper ratios               :          calls 0.100, bytes "
              "0.623\n");

  bench::JsonWriter json("bench_interactive_savings");
  json.record("classic-calls", static_cast<double>(s.calls_before), "count",
              bench::Better::kLower);
  json.record("readdirplus-calls", static_cast<double>(s.calls_after),
              "count", bench::Better::kLower);

  // The paper converts the savings to seconds/hour; do the same using the
  // boundary cost model (crossing + copy work per eliminated call).
  const uk::CostModel& cm = kernel.boundary().model();
  double units_per_call =
      static_cast<double>(cm.crossing_alu + cm.crossing_alu / 2 +
                          cm.crossing_cache);
  std::uint64_t saved_calls = s.calls_before - s.calls_after;
  std::uint64_t saved_bytes = s.bytes_before - s.bytes_after;
  double saved_units = static_cast<double>(saved_calls) * units_per_call +
                       static_cast<double>(saved_bytes) / 1024.0 *
                           static_cast<double>(cm.copy_per_kib);
  // Estimate unit cost from this run: elapsed seconds per executed unit.
  double total_units = static_cast<double>(proc.task().times().kernel +
                                           proc.task().times().user);
  double sec_per_unit = total_units > 0 ? elapsed / total_units : 0;
  double saved_sec = saved_units * sec_per_unit;
  std::printf("  estimated savings          : %.2f s per session (paper: "
              "~28.15 s/hour of interactive load)\n", saved_sec);
  return 0;
}
