// Tests for the ktrace observability stack: log2 histograms, tracepoint
// enable/disable semantics, per-CPU ring drain ordering, lossless tracing
// under parallel dispatch, the /proc synthetic filesystem read through
// the normal syscall path, and the chrome://tracing exporter.
//
// Ktrace is process-wide (the machine has one tracer), so every test
// that touches it starts from reset() and leaves tracing disabled.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/klog.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "trace/chrome.hpp"
#include "trace/histogram.hpp"
#include "trace/ktrace.hpp"
#include "trace/tracepoint.hpp"
#include "uk/userlib.hpp"
#include "numbered.hpp"

namespace usk {
namespace {

// --- Histogram -----------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(trace::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(trace::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(trace::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(trace::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(trace::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(trace::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(trace::Histogram::bucket_of(1024), 11u);
  // Bucket i >= 1 covers [2^(i-1), 2^i): lo/hi must agree with bucket_of.
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_EQ(trace::Histogram::bucket_of(
                  trace::HistogramSnapshot::bucket_lo(i)),
              i);
    EXPECT_EQ(trace::Histogram::bucket_of(
                  trace::HistogramSnapshot::bucket_hi(i)),
              i);
  }
}

TEST(HistogramTest, RecordCountSumMaxAvg) {
  trace::Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  trace::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 60u);
  EXPECT_EQ(s.max, 30u);
  EXPECT_EQ(s.avg(), 20u);
}

TEST(HistogramTest, PercentileApproximation) {
  trace::Histogram h;
  // 90 fast ops (~100ns), 10 slow ops (~100000ns).
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(100000);
  trace::HistogramSnapshot s = h.snapshot();
  // p50 lands in the fast bucket, p99 in the slow one. Log2 resolution:
  // assert bucket membership, not exact values.
  EXPECT_LT(s.percentile(50.0), 256u);
  EXPECT_GT(s.percentile(99.0), 65535u);
  EXPECT_LE(s.percentile(99.0), s.max);
  EXPECT_LE(s.percentile(50.0), s.percentile(99.0));
}

TEST(HistogramTest, MergeAndReset) {
  trace::Histogram a;
  trace::Histogram b;
  a.record(5);
  b.record(7);
  b.record(9);
  trace::HistogramSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 3u);
  EXPECT_EQ(sa.sum, 21u);
  EXPECT_EQ(sa.max, 9u);
  a.reset();
  EXPECT_EQ(a.snapshot().count, 0u);
}

// --- Ktrace core ---------------------------------------------------------

class KtraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::ktrace().disable();
    trace::ktrace().reset();
  }
  void TearDown() override {
    trace::ktrace().disable();
    trace::ktrace().reset();
  }
};

TEST_F(KtraceTest, SiteRegistrationDedupes) {
  std::uint16_t a = trace::ktrace().register_site("test", "site_a");
  std::uint16_t b = trace::ktrace().register_site("test", "site_b");
  std::uint16_t a2 = trace::ktrace().register_site("test", "site_a");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_STREQ(trace::ktrace().site_subsys(a), "test");
  EXPECT_STREQ(trace::ktrace().site_name(b), "site_b");
}

TEST_F(KtraceTest, DisabledTracepointEmitsNothing) {
  ASSERT_FALSE(trace::enabled());
  for (int i = 0; i < 100; ++i) {
    USK_TRACEPOINT("test", "disabled_site", 1, 2);
  }
  EXPECT_EQ(trace::ktrace().emitted(), 0u);
  EXPECT_TRUE(trace::ktrace().drain().empty());
}

TEST_F(KtraceTest, EnabledTracepointEmitsAndDrainsInOrder) {
  trace::ktrace().enable();
  for (std::uint64_t i = 0; i < 50; ++i) {
    USK_TRACEPOINT("test", "ordered_site", i, i * 2);
  }
  trace::ktrace().disable();
  std::vector<trace::TraceEvent> events = trace::ktrace().drain();
  ASSERT_EQ(events.size(), 50u);
  EXPECT_EQ(trace::ktrace().emitted(), 50u);
  EXPECT_EQ(trace::ktrace().dropped(), 0u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    EXPECT_EQ(events[i].arg0, i);
    EXPECT_EQ(events[i].arg1, i * 2);
    EXPECT_STREQ(trace::ktrace().site_name(events[i].site), "ordered_site");
  }
  // Drain consumed everything.
  EXPECT_TRUE(trace::ktrace().drain().empty());
}

TEST_F(KtraceTest, SiteHitCountsAccumulate) {
  trace::ktrace().enable();
  for (int i = 0; i < 7; ++i) USK_TRACEPOINT("test", "hit_counted");
  trace::ktrace().disable();
  bool found = false;
  for (const trace::SiteInfo& s : trace::ktrace().sites()) {
    if (std::string(s.subsys) == "test" &&
        std::string(s.name) == "hit_counted") {
      EXPECT_EQ(s.hits, 7u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(KtraceTest, FullRingDropsAndCounts) {
  trace::ktrace().configure(8);
  trace::ktrace().enable();
  std::uint16_t site = trace::ktrace().register_site("test", "drop_site");
  for (int i = 0; i < 100; ++i) trace::ktrace().emit(site);
  trace::ktrace().disable();
  EXPECT_EQ(trace::ktrace().emitted(), 100u);
  EXPECT_GT(trace::ktrace().dropped(), 0u);
  std::vector<trace::TraceEvent> events = trace::ktrace().drain();
  // Conservation: drained == emitted - dropped, exactly.
  EXPECT_EQ(events.size(),
            trace::ktrace().emitted() - trace::ktrace().dropped());
}

TEST_F(KtraceTest, PerCpuStatsAccountEveryDropAndWarnOnce) {
  trace::ktrace().configure(8);
  trace::ktrace().enable();
  std::uint16_t site = trace::ktrace().register_site("test", "wrap_site");
  for (int i = 0; i < 100; ++i) trace::ktrace().emit(site);
  trace::ktrace().disable();
  ASSERT_GT(trace::ktrace().dropped(), 0u);

  // The per-CPU rows must reconcile exactly with the merged totals.
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  for (const trace::Ktrace::CpuStats& c : trace::ktrace().per_cpu_stats()) {
    emitted += c.emitted;
    dropped += c.dropped;
    EXPECT_EQ(c.capacity, 8u);
  }
  EXPECT_EQ(emitted, trace::ktrace().emitted());
  EXPECT_EQ(dropped, trace::ktrace().dropped());

  // Losing events silently is the observability sin: the first drop on
  // this CPU logged a rate-limited warning through klog.
  EXPECT_TRUE(base::klog().contains("ktrace: cpu"));

  // reset() clears the rows and re-arms the first-drop warning.
  trace::ktrace().reset();
  EXPECT_TRUE(trace::ktrace().per_cpu_stats().empty());
}

TEST_F(KtraceTest, LosslessUnderParallelSyscallDispatch) {
  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  rootfs.set_cost_hook(kernel.charge_hook());

  trace::ktrace().configure(1 << 15);
  trace::ktrace().enable();
  constexpr int kThreads = 4;
  constexpr int kCalls = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&kernel, t] {
      uk::Proc p(kernel, testutil::numbered("w", t));
      std::string path = "/f" + std::to_string(t);
      int fd = p.open(path.c_str(), fs::kOWrOnly | fs::kOCreat);
      char block[64] = {};
      fs::StatBuf st;
      for (int i = 0; i < kCalls; ++i) {
        switch (i % 3) {
          case 0: p.getpid(); break;
          case 1: p.write(fd, block, sizeof block); break;
          case 2: p.stat(path.c_str(), &st); break;
        }
      }
      p.close(fd);
    });
  }
  for (auto& w : workers) w.join();
  trace::ktrace().disable();

  const std::uint64_t emitted = trace::ktrace().emitted();
  const std::uint64_t dropped = trace::ktrace().dropped();
  std::vector<trace::TraceEvent> events = trace::ktrace().drain();
  EXPECT_GT(emitted, static_cast<std::uint64_t>(kThreads * kCalls));
  EXPECT_EQ(dropped, 0u) << "rings sized to hold the full event volume";
  EXPECT_EQ(events.size(), emitted - dropped);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST_F(KtraceTest, SyscallHistogramIsAlwaysOn) {
  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  uk::Proc p(kernel, "hist");
  ASSERT_FALSE(trace::enabled());
  const std::uint64_t before = kernel.syscall_latency(uk::Sys::kGetpid).count;
  for (int i = 0; i < 10; ++i) p.getpid();
  const std::uint64_t after = kernel.syscall_latency(uk::Sys::kGetpid).count;
  EXPECT_EQ(after - before, 10u);
}

TEST_F(KtraceTest, ScopedLatencyRecordsOnlyWhenEnabled) {
  trace::Histogram& h = trace::ktrace().op_hist("test", "scoped_lat");
  {
    trace::ScopedLatency lat(h);
    (void)lat;
  }
  EXPECT_EQ(h.count(), 0u) << "disabled: no clock sampling, no record";
  trace::ktrace().enable();
  {
    trace::ScopedLatency lat(h);
    (void)lat;
  }
  trace::ktrace().disable();
  EXPECT_EQ(h.count(), 1u);
  bool listed = false;
  for (const trace::OpHistInfo& o : trace::ktrace().op_hists()) {
    if (std::string(o.subsys) == "test" &&
        std::string(o.name) == "scoped_lat") {
      listed = true;
    }
  }
  EXPECT_TRUE(listed);
}

// --- chrome://tracing exporter -------------------------------------------

TEST_F(KtraceTest, ChromeExportPairsSyscallSpans) {
  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  uk::Proc p(kernel, "chrome");
  trace::ktrace().enable();
  p.getpid();
  p.getpid();
  trace::ktrace().disable();
  std::vector<trace::TraceEvent> events = trace::ktrace().drain();
  ASSERT_FALSE(events.empty());
  std::string json = trace::export_chrome(events);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Each getpid's enter/exit pair becomes one complete ("X") span.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sys_"), std::string::npos);
}

// --- ProcFs through the syscall path --------------------------------------

class ProcSyscallTest : public ::testing::Test {
 protected:
  ProcSyscallTest() : kernel_(rootfs_), proc_(kernel_, "proctest") {
    rootfs_.set_cost_hook(kernel_.charge_hook());
    trace::ktrace().disable();
    trace::ktrace().reset();
    kernel_.mount_procfs();
  }
  ~ProcSyscallTest() override {
    trace::ktrace().disable();
    trace::ktrace().reset();
  }

  /// Read a whole /proc file with open/read/close syscalls.
  std::string cat(const char* path) {
    std::string out;
    int fd = proc_.open(path, fs::kORdOnly);
    if (fd < 0) return out;
    char buf[512];
    for (;;) {
      SysRet n = proc_.read(fd, buf, sizeof buf);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    proc_.close(fd);
    return out;
  }

  fs::MemFs rootfs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

TEST_F(ProcSyscallTest, SelfStatReflectsCurrentTask) {
  proc_.getpid();
  std::string text = cat("/proc/self/stat");
  EXPECT_NE(text.find("pid " + std::to_string(proc_.task().pid())),
            std::string::npos);
  EXPECT_NE(text.find("name proctest"), std::string::npos);
  EXPECT_NE(text.find("syscalls "), std::string::npos);
}

TEST_F(ProcSyscallTest, SelfStatCarriesALongTaskNameWhole) {
  // A line longer than any fixed formatting buffer: the name must come
  // back whole, with nothing after it that the renderer did not write.
  const std::string name(600, 'n');
  uk::Proc p(kernel_, name);
  std::string text;
  const int fd = p.open("/proc/self/stat", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  char buf[512];
  for (SysRet n; (n = p.read(fd, buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  p.close(fd);
  EXPECT_NE(text.find("name " + name + "\nstate "), std::string::npos);
  EXPECT_EQ(text.find('\0'), std::string::npos);
}

TEST_F(ProcSyscallTest, VfsStatsCountTheReadingItself) {
  std::string first = cat("/proc/vfs/stats");
  EXPECT_NE(first.find("opens "), std::string::npos);
  // Reading /proc/vfs/stats is itself an open+reads: counters must grow.
  std::string second = cat("/proc/vfs/stats");
  EXPECT_NE(second, first);
}

TEST_F(ProcSyscallTest, SyscallHistogramRendersSyscallNames) {
  for (int i = 0; i < 5; ++i) proc_.getpid();
  fs::StatBuf st;
  proc_.stat("/proc", &st);
  std::string text = cat("/proc/trace/hist/syscall");
  EXPECT_NE(text.find("getpid count "), std::string::npos);
  EXPECT_NE(text.find("avg_ns "), std::string::npos);
  EXPECT_NE(text.find("p99_ns "), std::string::npos);
}

TEST_F(ProcSyscallTest, TraceEnableTogglesViaWrite) {
  EXPECT_NE(cat("/proc/trace/enable").find("0"), std::string::npos);
  int fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.write(fd, "1\n", 2), 2);
  proc_.close(fd);
  EXPECT_TRUE(trace::enabled());
  EXPECT_NE(cat("/proc/trace/enable").find("1"), std::string::npos);

  fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  EXPECT_EQ(proc_.write(fd, "0\n", 2), 2);
  proc_.close(fd);
  EXPECT_FALSE(trace::enabled());
}

TEST_F(ProcSyscallTest, TraceEnableRejectsGarbage) {
  int fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.write(fd, "zap", 3), sysret_err(Errno::kEINVAL));
  proc_.close(fd);
}

TEST_F(ProcSyscallTest, ReadOnlyFilesRejectWrites) {
  int fd = proc_.open("/proc/vfs/stats", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.write(fd, "x", 1), sysret_err(Errno::kEACCES));
  proc_.close(fd);
}

TEST_F(ProcSyscallTest, NamespaceIsImmutable) {
  EXPECT_EQ(proc_.mkdir("/proc/newdir"), sysret_err(Errno::kEROFS));
  EXPECT_EQ(proc_.unlink("/proc/vfs/stats"), sysret_err(Errno::kEROFS));
  EXPECT_EQ(proc_.open("/proc/newfile", fs::kOWrOnly | fs::kOCreat),
            sysret_err(Errno::kEROFS));
}

TEST_F(ProcSyscallTest, TraceEventsListsFiredSites) {
  int fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  proc_.write(fd, "1", 1);
  proc_.close(fd);
  proc_.getpid();
  fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  proc_.write(fd, "0", 1);
  proc_.close(fd);
  std::string text = cat("/proc/trace/events");
  EXPECT_NE(text.find("syscall:enter "), std::string::npos);
  EXPECT_NE(text.find("syscall:exit "), std::string::npos);
  EXPECT_NE(text.find("boundary:enter "), std::string::npos);
}

TEST_F(ProcSyscallTest, TraceStatsRendersPerCpuDropRows) {
  trace::ktrace().configure(8);
  int fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  proc_.write(fd, "1", 1);
  proc_.close(fd);
  std::uint16_t site = trace::ktrace().register_site("test", "proc_wrap");
  for (int i = 0; i < 100; ++i) trace::ktrace().emit(site);
  fd = proc_.open("/proc/trace/enable", fs::kOWrOnly);
  proc_.write(fd, "0", 1);
  proc_.close(fd);

  std::string text = cat("/proc/trace/stats");
  EXPECT_NE(text.find("emitted "), std::string::npos);
  EXPECT_NE(text.find("dropped "), std::string::npos);
  EXPECT_NE(text.find("# cpu emitted dropped capacity"), std::string::npos);
  // At least one per-CPU row reports the 8-slot ring that wrapped.
  EXPECT_NE(text.find(" 8\n"), std::string::npos);
}

TEST_F(ProcSyscallTest, MetricsExposeBridgesTraceAndSpanCounters) {
  trace::ktrace().configure(8);
  trace::ktrace().enable();
  std::uint16_t site = trace::ktrace().register_site("test", "metrics_wrap");
  for (int i = 0; i < 100; ++i) trace::ktrace().emit(site);
  trace::ktrace().disable();
  proc_.getpid();  // give the syscall-latency scrape a live histogram

  std::string prom = cat("/proc/metrics");
  EXPECT_NE(prom.find("usk_trace_events_emitted"), std::string::npos);
  EXPECT_NE(prom.find("usk_trace_events_dropped"), std::string::npos);
  EXPECT_NE(prom.find("usk_spans_started"), std::string::npos);
  EXPECT_NE(prom.find("usk_spans_dropped"), std::string::npos);
  // The ktrace syscall histograms surface as labeled latency series.
  EXPECT_NE(prom.find("usk_syscall_latency_ns{syscall=\"getpid\""),
            std::string::npos);
}

TEST_F(ProcSyscallTest, ProcStatsSizeZeroLikeRealProc) {
  fs::StatBuf st;
  ASSERT_EQ(proc_.stat("/proc/vfs/stats", &st), 0);
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(st.type, fs::FileType::kRegular);
  ASSERT_EQ(proc_.stat("/proc/trace", &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kDirectory);
}

}  // namespace
}  // namespace usk
