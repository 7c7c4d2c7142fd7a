// Cross-module integration tests: the paper's full experimental stacks
// assembled end to end -- Cosy speedups over real syscall sequences,
// Kefence-instrumented WrapFs under a build workload, KGCC-instrumented
// JournalFs behind the VFS, the event monitor wired to the dcache_lock
// under PostMark, and the consolidation what-if over a real audited
// session.
#include <gtest/gtest.h>

#include <cstring>

#include "bcc/checked_ptr.hpp"
#include "consolidation/graph.hpp"
#include "consolidation/newcalls.hpp"
#include "cosy/compiler.hpp"
#include "cosy/exec.hpp"
#include "evmon/chardev.hpp"
#include "evmon/dispatcher.hpp"
#include "evmon/monitors.hpp"
#include "evmon/profiler.hpp"
#include "evmon/rules.hpp"
#include "fs/journalfs.hpp"
#include "fs/wrapfs.hpp"
#include "kefence/kefence.hpp"
#include "uk/userlib.hpp"
#include "workload/amutils.hpp"
#include "workload/postmark.hpp"
#include "workload/tracegen.hpp"

namespace usk {
namespace {

// E3/E4 shape: a Cosy compound must beat the equivalent classic syscall
// sequence in kernel work-units because it crosses the boundary once.
TEST(Integration, CosyBeatsClassicSequenceInKernelTime) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc classic(kernel, "classic");
  uk::Proc compound(kernel, "compound");
  cosy::CosyExtension ext(kernel);
  cosy::SharedBuffer shared(1 << 16);

  // Build a file to scan.
  constexpr std::size_t kSize = 256 * 1024;
  {
    int fd = classic.open("/scanme", fs::kOWrOnly | fs::kOCreat);
    std::vector<char> block(4096, 'd');
    for (std::size_t off = 0; off < kSize; off += block.size()) {
      classic.write(fd, block.data(), block.size());
    }
    classic.close(fd);
  }

  // Classic: open + read loop + close through individual syscalls.
  std::uint64_t k0 = classic.task().times().kernel;
  {
    int fd = classic.open("/scanme", fs::kORdOnly);
    std::vector<char> buf(4096);
    while (classic.read(fd, buf.data(), buf.size()) > 0) {
    }
    classic.close(fd);
  }
  std::uint64_t classic_units = classic.task().times().kernel - k0;

  // Cosy: the same logic compiled from C and executed as one compound.
  cosy::CompileResult cr = cosy::compile(
      "int fd = open(\"/scanme\", O_RDONLY);"
      "int total = 0; int n = 1;"
      "while (n > 0) { n = read(fd, @0, 4096); total = total + n; }"
      "close(fd);"
      "return total;");
  ASSERT_TRUE(cr.ok) << cr.error;
  std::uint64_t c0 = compound.task().times().kernel;
  cosy::CosyResult r = ext.execute(compound.process(), cr.compound, shared);
  std::uint64_t cosy_units = compound.task().times().kernel - c0;

  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[cosy::kReturnLocal],
            static_cast<std::int64_t>(kSize));
  // The paper reports 40-90% improvements for CPU-bound sequences.
  EXPECT_LT(cosy_units, classic_units);
  double improvement = 1.0 - static_cast<double>(cosy_units) /
                                 static_cast<double>(classic_units);
  EXPECT_GT(improvement, 0.20) << "cosy=" << cosy_units
                               << " classic=" << classic_units;
}

// E5 stack: Kefence-instrumented WrapFs runs a build workload correctly
// and catches a deliberately injected overflow afterwards.
TEST(Integration, KefenceWrapfsBuildWorkloadAndInjectedOverflow) {
  vm::PhysMem pm(1 << 15);
  vm::AddressSpace as(pm, "kef");
  mm::Vmalloc vmalloc(as, 0xFFFF900000000000ull, 1 << 15);
  kefence::Kefence kef(vmalloc, kefence::KefenceOptions{
                                    kefence::Mode::kCrashModule, false});
  fs::MemFs lower;
  fs::WrapFs wrap(lower, kef);
  uk::Kernel kernel(wrap);
  lower.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "builder");

  workload::AmUtilsConfig cfg;
  cfg.source_files = 15;
  cfg.header_files = 5;
  workload::AmUtilsBuild build(cfg);
  build.populate(proc);
  workload::AmUtilsReport rep = build.build(proc);
  EXPECT_EQ(rep.errors, 0u);
  EXPECT_EQ(kef.kstats().overflows, 0u);
  EXPECT_GT(kef.stats().alloc_calls, 100u);

  // Inject the bug Kefence exists for: write one byte past a buffer.
  mm::BufferHandle h = kef.alloc(80, "module.c", 123);
  char b = '!';
  EXPECT_EQ(kef.write(h, 80, &b, 1), Errno::kEFAULT);
  EXPECT_EQ(kef.kstats().overflows, 1u);
  EXPECT_TRUE(kef.module_disabled());
  EXPECT_TRUE(base::klog().contains("module.c:123"));
}

// E7 stack: KGCC-instrumented JournalFs behind the full syscall interface.
TEST(Integration, KgccJournalfsUnderSyscalls) {
  bcc::Runtime& rt = bcc::Runtime::instance();
  rt.clear_errors();
  fs::JournalFs<bcc::BccPtrPolicy> jfs(512, 1024, 256);
  uk::Kernel kernel(jfs);
  uk::Proc proc(kernel, "kgcc");

  std::uint64_t checks0 = rt.stats().checks;
  workload::PostMarkConfig cfg;
  cfg.file_count = 20;
  cfg.transactions = 60;
  cfg.min_size = 200;
  cfg.max_size = 2000;
  workload::PostMark pmark(cfg);
  workload::PostMarkReport rep = pmark.run(proc);
  EXPECT_EQ(rep.errors, 0u);
  // Instrumentation really ran (millions of byte-level checks)...
  EXPECT_GT(rt.stats().checks - checks0, 100000u);
  // ...and correct code produced no violations.
  EXPECT_TRUE(rt.errors().empty());
}

// E6 stack: event monitor on dcache_lock under PostMark, kernel-space
// callback plus user-space logger via the ring buffer.
TEST(Integration, EvmonDcacheLockUnderPostmark) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "pm");

  evmon::Dispatcher dispatcher;
  evmon::RingBuffer ring(1 << 16);
  dispatcher.attach_ring(&ring);
  evmon::SpinlockMonitor monitor;
  monitor.attach(dispatcher);
  dispatcher.install_sync_bridge();

  workload::PostMarkConfig cfg;
  cfg.file_count = 30;
  cfg.transactions = 150;
  workload::PostMark pmark(cfg);
  pmark.run(proc);

  dispatcher.remove_sync_bridge();
  monitor.finish();

  // The dcache lock was hit hundreds of times; pairing is clean.
  EXPECT_GT(monitor.lock_events(), 500u);
  EXPECT_TRUE(monitor.anomalies().empty());

  // The user-space side drains the same events through the chardev.
  evmon::Chardev dev(ring);
  evmon::KernEventsClient client(dev, 512);
  evmon::Event e;
  std::uint64_t drained = 0;
  while (client.next(&e, evmon::ReadMode::kPolling)) ++drained;
  EXPECT_EQ(drained + ring.dropped(), ring.pushed());
  EXPECT_GT(drained, 0u);
}

// E2 pipeline: audited interactive session -> graph mining finds the
// readdir-stat pattern -> what-if shows call and byte savings.
TEST(Integration, InteractiveAuditToWhatIfPipeline) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "desktop");

  workload::InteractiveConfig cfg;
  cfg.dirs = 4;
  cfg.files_per_dir = 120;
  cfg.dir_sweeps = 8;
  cfg.config_reads = 30;
  cfg.log_appends = 15;
  workload::populate_tree(proc, cfg);

  kernel.audit().enable();
  kernel.audit().clear();
  workload::run_interactive(proc, cfg);
  kernel.audit().disable();

  const auto& recs = kernel.audit().records();
  consolidation::SyscallGraph graph;
  graph.add_audit(kernel.audit());
  // The dominant edge out of readdir is stat or readdir.
  EXPECT_GT(graph.edge(uk::Sys::kStat, uk::Sys::kStat), 100u);

  consolidation::WhatIfSavings s = consolidation::readdirplus_whatif(recs);
  EXPECT_EQ(s.calls_before, recs.size());
  EXPECT_LT(s.calls_after, s.calls_before / 2);
  EXPECT_LT(s.bytes_after, s.bytes_before);
}

// Cosy safety end-to-end: a malicious compound (infinite loop) and a
// malicious VM function (segment escape) both terminate safely while the
// kernel stays usable for other processes.
TEST(Integration, SafetyNetsIsolateMaliciousCode) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc evil(kernel, "evil");
  uk::Proc good(kernel, "good");
  cosy::CosyExtension ext(kernel);
  cosy::SharedBuffer shared(4096);

  // Malicious compound: while(1);
  evil.task().set_kernel_budget(100'000);
  cosy::CompileResult cr = cosy::compile("int x = 1; while (x) { x = 1; }");
  ASSERT_TRUE(cr.ok) << cr.error;
  cosy::CosyResult r = ext.execute(evil.process(), cr.compound, shared);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEKILLED);
  EXPECT_EQ(evil.task().state(), sched::TaskState::kKilled);

  // Malicious VM function: writes outside its data segment.
  cosy::VmAssembler a;
  a.loadi(2, 1 << 20).st(1, 2, 0).ret();
  int fid = ext.install_function(a.take(), 128,
                                 cosy::SafetyMode::kIsolatedSegments,
                                 "escape");
  cosy::CompoundBuilder cb;
  cb.call_func(fid, {cosy::imm(0xAA)}, 0);
  cosy::Compound c = cb.finish();
  cosy::CosyResult r2 = ext.execute(good.process(), c, shared);
  EXPECT_EQ(sysret_errno(r2.ret), Errno::kEFAULT);
  EXPECT_GT(ext.gdt().stats().violations, 0u);

  // The good process still works normally afterwards.
  int fd = good.open("/ok", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(good.write(fd, "fine", 4), 4);
  EXPECT_EQ(good.close(fd), 0);
}

// Consolidated calls vs. classic sequences under identical work: fewer
// crossings AND less kernel time.
TEST(Integration, ConsolidatedCallsReduceKernelTime) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "cmp");

  // Population.
  proc.mkdir("/files");
  for (int i = 0; i < 50; ++i) {
    std::string p = "/files/f" + std::to_string(i);
    int fd = proc.open(p.c_str(), fs::kOWrOnly | fs::kOCreat);
    char data[256] = {};
    proc.write(fd, data, sizeof(data));
    proc.close(fd);
  }

  // Classic open-read-close over all files.
  std::uint64_t k0 = proc.task().times().kernel;
  char buf[512];
  for (int i = 0; i < 50; ++i) {
    std::string p = "/files/f" + std::to_string(i);
    int fd = proc.open(p.c_str(), fs::kORdOnly);
    proc.read(fd, buf, sizeof(buf));
    proc.close(fd);
  }
  std::uint64_t classic = proc.task().times().kernel - k0;

  // Consolidated call over all files.
  std::uint64_t k1 = proc.task().times().kernel;
  for (int i = 0; i < 50; ++i) {
    std::string p = "/files/f" + std::to_string(i);
    consolidation::sys_open_read_close(kernel, proc.process(), p.c_str(),
                                       buf, sizeof(buf), 0);
  }
  std::uint64_t consolidated = proc.task().times().kernel - k1;

  EXPECT_LT(consolidated, classic);
  double improvement =
      1.0 - static_cast<double>(consolidated) / static_cast<double>(classic);
  EXPECT_GT(improvement, 0.3) << "consolidated=" << consolidated
                              << " classic=" << classic;
}

// Kitchen sink: the full stack at once. Kefence-backed WrapFs over MemFs,
// two processes interleaving PostMark transactions and metadata work, the
// event monitor + rules + profiler attached, audit recording -- everything
// on, nothing may misbehave.
TEST(Integration, FullStackKitchenSink) {
  vm::PhysMem pm(1 << 15);
  vm::AddressSpace as(pm, "sink");
  mm::Vmalloc vmalloc(as, 0xFFFFA00000000000ull, 1ull << 20);
  mm::Kmalloc km(pm);
  kefence::KefenceOptions kopt;
  kopt.sample_interval = 4;  // selective protection in the mix
  kefence::Kefence kef(vmalloc, kopt, &km);
  fs::MemFs lower;
  fs::WrapFs wrap(lower, kef);
  // The evmon rules below monitor "the" dcache_lock, so run the paper's
  // single-global-lock configuration (1 shard). A sharded kernel would
  // need every shard lock registered to see all events.
  uk::KernelConfig kcfg;
  kcfg.dcache_shards = 1;
  uk::Kernel kernel(wrap, kcfg);
  lower.set_cost_hook(kernel.charge_hook());

  evmon::Dispatcher dispatcher;
  evmon::RingBuffer ring(1 << 15);
  dispatcher.attach_ring(&ring);
  evmon::SpinlockMonitor lock_mon;
  evmon::LockProfiler profiler;
  lock_mon.attach(dispatcher);
  profiler.attach(dispatcher);
  evmon::RuleSet rules;
  rules.register_object(&kernel.vfs().dcache().lock(), "spinlock",
                        "dcache_lock");
  ASSERT_TRUE(rules.parse("monitor spinlock dcache_lock\n").ok);
  dispatcher.set_filter([&](const evmon::Event& e) { return rules.allows(e); });
  dispatcher.install_sync_bridge();

  kernel.audit().enable();
  uk::Proc alice(kernel, "alice");
  uk::Proc bob(kernel, "bob");

  // Interleave two workloads by hand.
  alice.mkdir("/a");
  bob.mkdir("/b");
  base::Rng rng(17);
  for (int round = 0; round < 120; ++round) {
    std::string ap = "/a/f" + std::to_string(rng.below(20));
    std::string bp = "/b/g" + std::to_string(rng.below(20));
    int afd = alice.open(ap.c_str(), fs::kOWrOnly | fs::kOCreat);
    if (afd >= 0) {
      char data[300];
      std::memset(data, static_cast<int>(round), sizeof(data));
      alice.write(afd, data, sizeof(data));
      alice.close(afd);
    }
    fs::StatBuf st;
    bob.stat(ap.c_str(), &st);
    int bfd = bob.open(bp.c_str(), fs::kOWrOnly | fs::kOCreat);
    if (bfd >= 0) {
      bob.write(bfd, "bob", 3);
      bob.close(bfd);
    }
    if (round % 7 == 0) {
      alice.link(ap.c_str(), ("/a/link" + std::to_string(round)).c_str());
    }
    if (round % 11 == 0) {
      bob.unlink(bp.c_str());
    }
    alice.list_dir("/a");
  }
  kernel.audit().disable();
  dispatcher.remove_sync_bridge();
  dispatcher.set_filter(nullptr);
  lock_mon.finish();

  // Everything held together:
  EXPECT_TRUE(lock_mon.anomalies().empty());
  EXPECT_GT(lock_mon.lock_events(), 100u);        // rules let dcache through
  EXPECT_EQ(kef.kstats().overflows, 0u);          // no false positives
  EXPECT_GT(kef.kstats().guarded_allocs, 10u);    // sampling really guarded
  EXPECT_GT(kef.kstats().passthrough_allocs, 10u);
  EXPECT_GT(kernel.audit().records().size(), 500u);
  const evmon::HoldStats* dc =
      profiler.stats_for(&kernel.vfs().dcache().lock());
  ASSERT_NE(dc, nullptr);
  EXPECT_GT(dc->acquisitions, 100u);
  // Both namespaces remained consistent.
  auto a_entries = alice.list_dir("/a");
  EXPECT_GT(a_entries.size(), 10u);
}

}  // namespace
}  // namespace usk
