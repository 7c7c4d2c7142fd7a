// E5 (paper §3.2): Kefence overhead on an instrumented Wrapfs.
//
// "We compiled the Am-utils package over Wrapfs and compared the time
// overhead of the instrumented version of Wrapfs with vanilla Wrapfs. The
// instrumented version of Wrapfs had an overhead of 1.4% elapsed time over
// normal Wrapfs. ... the maximum number of outstanding allocated pages
// during the compilation of Am-utils over the instrumented version of
// Wrapfs was 2,085 and the average size of each memory allocation was 80
// bytes."
//
// Vanilla = WrapFs-on-MemFs with kmalloc private data; instrumented = the
// same stack with every WrapFs allocation routed through Kefence
// (vmalloc + guardian PTEs, all accesses MMU-checked, TLB contention
// modelled). Overheads for the vfree hash table and allocator are also
// broken out.
#include <cinttypes>

#include "bench/common.hpp"
#include "fs/memfs.hpp"
#include "fs/wrapfs.hpp"
#include "kefence/kefence.hpp"
#include "mm/kmalloc.hpp"
#include "uk/userlib.hpp"
#include "workload/amutils.hpp"

namespace {

using namespace usk;

workload::AmUtilsConfig build_cfg() {
  workload::AmUtilsConfig cfg;
  cfg.source_files = 420;  // Am-utils has ~500 compilation units
  cfg.header_files = 50;
  return cfg;
}

double run_build(fs::FileSystem& stack, fs::MemFs& lower) {
  uk::Kernel kernel(stack);
  lower.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "make");
  workload::AmUtilsBuild build(build_cfg());
  build.populate(proc);
  workload::AmUtilsBuild warm(build_cfg());
  warm.build(proc);  // warm caches/pools; results identical either way
  return bench::time_best(3, [&] {
    workload::AmUtilsReport rep = build.build(proc);
    if (rep.errors != 0) std::abort();
  });
}

}  // namespace

int main() {
  bench::print_title("E5", "Kefence-instrumented Wrapfs, Am-utils build "
                           "(paper: +1.4% elapsed; 2,085 peak pages; 80 B "
                           "mean allocation)");
  // Each record is the wall seconds of one Am-utils build.
  bench::JsonWriter json("bench_kefence");

  // Vanilla: kmalloc-backed WrapFs.
  double vanilla;
  double vanilla_mean_alloc;
  {
    vm::PhysMem pm(1 << 15);
    mm::Kmalloc km(pm);
    fs::MemFs lower;
    fs::WrapFs wrap(lower, km);
    vanilla = run_build(wrap, lower);
    vanilla_mean_alloc = km.stats().mean_request_size();
  }

  // Instrumented: Kefence-backed WrapFs.
  double instrumented;
  std::uint64_t peak_pages, overflows;
  double mean_alloc;
  {
    vm::PhysMem pm(1 << 15);
    vm::AddressSpace as(pm, "kefence-vm");
    // 64-bit vmalloc area: "modern 64-bit architectures make the address
    // space a virtually inexhaustible resource" (paper §3.2).
    mm::Vmalloc vmalloc(as, 0xFFFF900000000000ull, 1ull << 22);
    kefence::Kefence kef(vmalloc);
    // Model hardware page-walk cost so vmalloc's TLB contention is real.
    base::WorkEngine tlb_engine;
    as.set_tlb_miss_cost(&tlb_engine, 40);
    fs::MemFs lower;
    fs::WrapFs wrap(lower, kef);
    instrumented = run_build(wrap, lower);
    peak_pages = kef.stats().peak_outstanding_pages;
    mean_alloc = kef.stats().mean_request_size();
    overflows = kef.kstats().overflows;
  }

  std::printf("%-28s %12s %12s %10s\n", "configuration", "elapsed(s)",
              "overhead", "");
  std::printf("%-28s %12.4f %12s\n", "vanilla wrapfs (kmalloc)", vanilla,
              "--");
  std::printf("%-28s %12.4f %+11.1f%%   (paper: +1.4%%)\n",
              "kefence wrapfs (vmalloc)", instrumented,
              100.0 * (bench::slowdown(vanilla, instrumented) - 1.0));
  std::printf("  peak outstanding pages     : %" PRIu64
              "   (paper: 2,085)\n", peak_pages);
  std::printf("  mean allocation size       : %.0f B (kefence) / %.0f B "
              "(kmalloc)   (paper: 80 B)\n", mean_alloc, vanilla_mean_alloc);
  std::printf("  overflows detected         : %" PRIu64 " (build is clean)\n",
              overflows);
  json.record("vanilla-wrapfs", vanilla, "s", bench::Better::kLower);
  json.record("kefence-wrapfs", instrumented, "s", bench::Better::kLower);

  // Breakout: the vfree hash-table fix (paper: "To speed up the default
  // vfree function we have added a hash table").
  {
    vm::PhysMem pm(1 << 14);
    vm::AddressSpace as(pm, "hash");
    mm::Vmalloc with_hash(as, 0x1000000, 1 << 13, /*use_hash_index=*/true);
    vm::PhysMem pm2(1 << 14);
    vm::AddressSpace as2(pm2, "nohash");
    mm::Vmalloc no_hash(as2, 0x1000000, 1 << 13, /*use_hash_index=*/false);

    auto churn = [](mm::Vmalloc& v) {
      std::vector<vm::VAddr> live;
      for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 200; ++i) live.push_back(v.alloc(80));
        for (int i = 0; i < 200; ++i) {
          v.free(live.back());
          live.pop_back();
        }
      }
    };
    double t_hash = bench::time_best(3, [&] { churn(with_hash); });
    double t_list = bench::time_best(3, [&] { churn(no_hash); });
    std::printf("  vfree lookup steps         : hash %" PRIu64
                " vs linear %" PRIu64 "  (wall %.4fs vs %.4fs)\n",
                with_hash.stats().lookup_steps, no_hash.stats().lookup_steps,
                t_hash, t_list);
  }

  // Ablation: selective protection (paper §3.5 future work, "dynamically
  // decide which memory should be protected at runtime"). Guard every Nth
  // allocation; the rest take the kmalloc fast path.
  std::printf("\n  selective protection (guard 1-in-N allocations):\n");
  std::printf("  %-10s %12s %10s %14s %14s\n", "interval", "elapsed(s)",
              "overhead", "guarded", "passthrough");
  for (std::uint32_t interval : {1u, 2u, 4u, 16u}) {
    vm::PhysMem pm(1 << 15);
    vm::AddressSpace as(pm, "kef-sampled");
    mm::Vmalloc vmalloc(as, 0xFFFF900000000000ull, 1ull << 22);
    mm::Kmalloc fallback(pm);
    kefence::KefenceOptions opt;
    opt.sample_interval = interval;
    kefence::Kefence kef(vmalloc, opt, &fallback);
    base::WorkEngine tlb_engine;
    as.set_tlb_miss_cost(&tlb_engine, 40);
    fs::MemFs lower;
    fs::WrapFs wrap(lower, kef);
    double t = run_build(wrap, lower);
    std::printf("  1-in-%-5u %12.4f %+9.1f%% %14" PRIu64 " %14" PRIu64 "\n",
                interval, t, 100.0 * (bench::slowdown(vanilla, t) - 1.0),
                kef.kstats().guarded_allocs,
                kef.kstats().passthrough_allocs);
    json.record("sampled-1-in-" + std::to_string(interval), t, "s",
                bench::Better::kLower);
  }
  return 0;
}
