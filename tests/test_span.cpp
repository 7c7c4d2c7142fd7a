// Tests for kspan, request-scoped causal tracing: the SpanScope
// discipline (inert when disabled, thread-local parent links, innermost
// attribution), the bounded drop-oldest store, the chrome://tracing flow
// export, and the property the subsystem exists for -- ONE well-formed
// span tree per request across every serving vehicle (plain syscalls,
// consolidated calls, Cosy compounds, submission rings), including when
// transient ring faults force classic rescues and when ksup quarantines
// an extension mid-run (the decomposed fallback syscalls must stay in
// the original request's tree, never orphans).
//
// Every Kernel owns its span store, so each test arms the store of its
// own fresh Kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "base/current.hpp"
#include "fault/kfail.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "sup/supervisor.hpp"
#include "trace/span.hpp"
#include "uk/userlib.hpp"
#include "workload/webserver.hpp"

namespace usk {
namespace {

using trace::SpanRecord;
using trace::SpanScope;
using trace::SpanVehicle;

class SpanTest : public ::testing::Test {
 protected:
  SpanTest() : kernel_(fs_), proc_(kernel_, "span-proc") {
    fs_.set_cost_hook(kernel_.charge_hook());
    kernel_.kspan().set_enabled(true);
  }

  /// Every parent link must resolve inside the drained set (no orphans)
  /// and every span must have a sane lifetime. Callers assert dropped ==
  /// 0 first, so the drained set is complete by construction.
  static void expect_well_formed(const std::vector<SpanRecord>& spans) {
    std::set<std::uint64_t> ids;
    for (const SpanRecord& s : spans) {
      EXPECT_NE(s.id, 0u);
      ids.insert(s.id);
    }
    for (const SpanRecord& s : spans) {
      EXPECT_GE(s.end_ns, s.start_ns) << s.name;
      if (s.parent != 0) {
        EXPECT_TRUE(ids.count(s.parent) != 0)
            << "orphan span '" << s.name << "' id " << s.id
            << " parent " << s.parent;
      }
    }
  }

  static std::size_t count_name(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
    std::size_t n = 0;
    for (const SpanRecord& s : spans) {
      if (name == s.name) ++n;
    }
    return n;
  }

  /// One small webserver run with spans enabled; returns the drained
  /// span set after asserting the run itself completed every request.
  std::vector<SpanRecord> run_ws(workload::ServeMode mode,
                                 std::uint16_t base_port,
                                 sup::Supervisor* sup = nullptr,
                                 std::size_t conns = 4) {
    net::Net net(kernel_);
    ring::RingDev rdev(kernel_);
    workload::WebServerConfig cfg;
    cfg.mode = mode;
    cfg.workers = 1;  // deterministic span counts
    cfg.conns_per_worker = conns;
    // >= ring_batch, so the pipelined ring client fills whole windows;
    // recv-chunk-aligned documents keep the pipelined byte counting
    // exact (one client recv never straddles two responses).
    cfg.requests_per_conn = 8;
    cfg.file_bytes = 4096;
    cfg.files = 2;
    cfg.base_port = base_port;
    cfg.supervisor = sup;
    if (mode == workload::ServeMode::kRing) cfg.ring = &rdev;
    workload::populate_www(proc_, cfg);

    workload::WebServerReport rep = workload::run_webserver(kernel_, net, cfg);
    EXPECT_EQ(rep.requests,
              cfg.workers * cfg.conns_per_worker * cfg.requests_per_conn);
    EXPECT_EQ(kernel_.kspan().stats().dropped, 0u);
    EXPECT_EQ(kernel_.kspan().stats().active, 0u);
    return kernel_.kspan().drain();
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

// --- SpanScope mechanics -------------------------------------------------------

TEST_F(SpanTest, ScopeIsInertWhenDisabled) {
  kernel_.kspan().set_enabled(false);
  {
    SpanScope s(kernel_.kspan(), "off", SpanVehicle::kPlain);
    EXPECT_FALSE(s.armed());
    EXPECT_EQ(s.id(), 0u);
    EXPECT_EQ(base::current().span, nullptr);
    proc_.getpid();  // the epilogue must not attribute anywhere
  }
  const trace::SpanStats st = kernel_.kspan().stats();
  EXPECT_EQ(st.started, 0u);
  EXPECT_EQ(st.finished, 0u);
  EXPECT_TRUE(kernel_.kspan().drain().empty());
}

TEST_F(SpanTest, NestedScopesLinkParentsAndAttributeInnermost) {
  int fd = proc_.open("/f", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  char block[128] = {};

  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    SpanScope outer(kernel_.kspan(), "outer", SpanVehicle::kPlain);
    outer_id = outer.id();
    EXPECT_EQ(base::current().span, &outer);
    proc_.getpid();  // 1 crossing on the outer span
    {
      SpanScope inner(kernel_.kspan(), "inner", SpanVehicle::kCosy,
                      /*ext=*/3);
      inner_id = inner.id();
      EXPECT_EQ(base::current().span, &inner);
      // 1 crossing + 128 copied-in bytes on the INNER span only.
      EXPECT_EQ(proc_.write(fd, block, sizeof block),
                static_cast<SysRet>(sizeof block));
    }
    EXPECT_EQ(base::current().span, &outer);
  }
  proc_.close(fd);

  std::vector<SpanRecord> spans = kernel_.kspan().drain();
  ASSERT_EQ(spans.size(), 2u);  // finished inner-first
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_EQ(inner.id, inner_id);
  EXPECT_EQ(inner.parent, outer_id);
  EXPECT_EQ(inner.ext, 3);
  EXPECT_EQ(inner.vehicle, SpanVehicle::kCosy);
  EXPECT_EQ(inner.crossings, 1u);
  EXPECT_EQ(inner.bytes_in, sizeof block);
  EXPECT_EQ(outer.id, outer_id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.crossings, 1u);  // getpid only; the write went inner
  EXPECT_EQ(outer.bytes_in, 0u);
  expect_well_formed(spans);
}

TEST_F(SpanTest, WatchedResultSetsErrorStatus) {
  std::int64_t ret = 0;
  {
    SpanScope s(kernel_.kspan(), "watched", SpanVehicle::kFallback);
    s.watch_result(&ret);
    ret = sysret_err(Errno::kEIO);
  }
  std::vector<SpanRecord> spans = kernel_.kspan().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].status, sysret_err(Errno::kEIO));
}

TEST_F(SpanTest, StoreEvictsOldestAndCountsDrops) {
  const std::size_t extra = 32;
  for (std::size_t i = 0; i < trace::Kspan::kMaxFinished + extra; ++i) {
    SpanScope s(kernel_.kspan(), "churn", SpanVehicle::kNone);
  }
  const trace::SpanStats st = kernel_.kspan().stats();
  EXPECT_EQ(st.started, trace::Kspan::kMaxFinished + extra);
  EXPECT_EQ(st.finished, trace::Kspan::kMaxFinished + extra);
  EXPECT_EQ(st.dropped, extra);
  EXPECT_EQ(kernel_.kspan().drain().size(), trace::Kspan::kMaxFinished);
}

TEST_F(SpanTest, ChromeExportBindsChildrenWithFlowEvents) {
  {
    SpanScope parent(kernel_.kspan(), "req", SpanVehicle::kPlain);
    SpanScope child(kernel_.kspan(), "part", SpanVehicle::kConsolidated);
  }
  std::vector<SpanRecord> spans = kernel_.kspan().drain();
  ASSERT_EQ(spans.size(), 2u);
  const std::string json = trace::export_chrome_spans(spans);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("req"), std::string::npos);
  EXPECT_NE(json.find("part"), std::string::npos);
}

TEST_F(SpanTest, KernelLessSpanJoinsTheInnermostSpan) {
  {
    SpanScope alone("store.commit");  // no span open: nothing to join
    EXPECT_FALSE(alone.armed());
  }
  std::uint64_t req_id = 0;
  {
    SpanScope req(kernel_.kspan(), "req", SpanVehicle::kPlain);
    req_id = req.id();
    SpanScope commit("store.commit");
    EXPECT_TRUE(commit.armed());
    proc_.getpid();  // attributes to the innermost span: the commit
  }
  const std::vector<SpanRecord> spans = kernel_.kspan().drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(std::string(spans[0].name), "store.commit");
  EXPECT_EQ(spans[0].parent, req_id);
  EXPECT_EQ(spans[0].crossings, 1u);
  EXPECT_EQ(spans[1].crossings, 0u);
}

// --- one tree per request, per vehicle -----------------------------------------

TEST_F(SpanTest, WebserverPlainOneSpanTreePerRequest) {
  std::vector<SpanRecord> spans = run_ws(workload::ServeMode::kPlain, 8400);
  expect_well_formed(spans);
  // Every served request got exactly one ingress span, promoted from
  // ws.data on the nonempty recv; accepts are their own (idle) roots.
  EXPECT_EQ(count_name(spans, "ws.request"), 32u);
  EXPECT_GE(count_name(spans, "ws.accept"), 4u);
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "ws.request") {
      EXPECT_EQ(s.parent, 0u);  // request ingress is a root
      EXPECT_EQ(s.vehicle, SpanVehicle::kPlain);
      EXPECT_GT(s.crossings, 0u);
    }
  }
}

TEST_F(SpanTest, WebserverConsolidatedOneSpanTreePerRequest) {
  std::vector<SpanRecord> spans =
      run_ws(workload::ServeMode::kConsolidated, 8410);
  expect_well_formed(spans);
  EXPECT_EQ(count_name(spans, "ws.request"), 32u);
  // The consolidated network calls open CHILD spans inside the ingress
  // span: none of them may be a root.
  EXPECT_GT(count_name(spans, "net.sendfile"), 0u);
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "net.sendfile" || name == "net.accept_recv") {
      EXPECT_NE(s.parent, 0u) << name << " escaped its request tree";
      EXPECT_EQ(s.vehicle, SpanVehicle::kConsolidated);
    }
  }
}

TEST_F(SpanTest, WebserverCosyOneTreePerConnection) {
  std::vector<SpanRecord> spans = run_ws(workload::ServeMode::kCosy, 8420);
  expect_well_formed(spans);
  // Cosy serves the whole keep-alive connection as one request unit:
  // one root span per connection, compounds strictly inside it.
  EXPECT_EQ(count_name(spans, "ws.conn"), 4u);
  EXPECT_GT(count_name(spans, "cosy.compound"), 0u);
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "cosy.compound") {
      EXPECT_NE(s.parent, 0u) << "compound escaped its connection tree";
      EXPECT_EQ(s.vehicle, SpanVehicle::kCosy);
    }
  }
}

TEST_F(SpanTest, WebserverRingOneTreePerConnection) {
  std::vector<SpanRecord> spans = run_ws(workload::ServeMode::kRing, 8430);
  expect_well_formed(spans);
  EXPECT_EQ(count_name(spans, "ws.conn"), 4u);
  // Drained chains are children of the connection span and carry the
  // kernel units the nested dispatch consumed (no Scope retires inside
  // a chain, so the units arrive via the explicit add_units path).
  EXPECT_GT(count_name(spans, "ring.chain"), 0u);
  std::uint64_t chain_units = 0;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "ring.chain") {
      EXPECT_NE(s.parent, 0u) << "ring chain escaped its connection tree";
      EXPECT_EQ(s.vehicle, SpanVehicle::kRing);
      chain_units += s.kernel_units;
    }
  }
  EXPECT_GT(chain_units, 0u);
}

TEST_F(SpanTest, RingTreeSurvivesSqeCorruptFaults) {
  ASSERT_TRUE(kernel_.kfail()
                  .apply_spec("seed=29,ring.sqe_corrupt:p=0.05:transient")
                  .ok());
  std::vector<SpanRecord> spans = run_ws(workload::ServeMode::kRing, 8440);
  kernel_.kfail().disarm_all();
  // run_ws already asserted every request completed; the recovery
  // re-validation must not have detached any span from its tree.
  expect_well_formed(spans);
  EXPECT_EQ(count_name(spans, "ws.conn"), 4u);
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "ring.chain") {
      EXPECT_NE(s.parent, 0u);
    }
  }
}

// --- ksup quarantine: the fallback decomposition stays in the tree -------------

TEST_F(SpanTest, QuarantineFallbackKeepsOneTreeNoOrphans) {
  sup::Supervisor s(kernel_);
  sup::BreakerPolicy pol;
  pol.violation_threshold = 1;
  pol.window_invocations = 16;
  pol.probation_clean_runs = 1;
  pol.backoff_initial = 1;
  pol.backoff_multiplier = 2;
  pol.backoff_cap = 4;
  s.set_policy(pol);

  // A dense fuel storm (one compound per connection, so half the 8
  // connections void at entry) forces rescue + quarantine + backoff
  // probes mid-run; every voided compound decomposes to classic syscalls.
  ASSERT_TRUE(kernel_.kfail().apply_spec("seed=11,cosy_fuel:p=0.5").ok());
  std::vector<SpanRecord> spans =
      run_ws(workload::ServeMode::kCosy, 8450, &s, /*conns=*/8);
  kernel_.kfail().disarm_all();

  ASSERT_EQ(s.extension_count(), 1u);
  EXPECT_GT(s.stats(0).violations, 0u);  // the storm actually struck

  // The regression this test pins: the quarantined extension's
  // decomposed classic syscalls carry the ORIGINAL request's span tree.
  // Every fallback span is a child inside a drained root -- one tree per
  // request, no orphans.
  expect_well_formed(spans);
  EXPECT_GT(count_name(spans, "sup.fallback"), 0u);
  for (const SpanRecord& sp : spans) {
    if (std::string(sp.name) == "sup.fallback") {
      EXPECT_NE(sp.parent, 0u) << "fallback span detached from its request";
      EXPECT_EQ(sp.vehicle, SpanVehicle::kFallback);
    }
  }
}

// --- /proc/span ----------------------------------------------------------------

TEST_F(SpanTest, ProcSpanFilesToggleAndRender) {
  kernel_.mount_procfs();
  auto cat = [&](const char* path) {
    std::string out;
    int fd = proc_.open(path, fs::kORdOnly);
    if (fd < 0) return out;
    char buf[2048];
    SysRet n;
    while ((n = proc_.read(fd, buf, sizeof(buf))) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    proc_.close(fd);
    return out;
  };

  // echo 0 > /proc/span/enable switches the subsystem off for real.
  int fd = proc_.open("/proc/span/enable", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.write(fd, "0\n", 2), 2);
  proc_.close(fd);
  EXPECT_FALSE(kernel_.kspan().is_enabled());
  EXPECT_EQ(cat("/proc/span/enable"), "0\n");

  fd = proc_.open("/proc/span/enable", fs::kOWrOnly);
  EXPECT_EQ(proc_.write(fd, "1\n", 2), 2);
  proc_.close(fd);
  EXPECT_TRUE(kernel_.kspan().is_enabled());

  {
    SpanScope sp(kernel_.kspan(), "proc.sample", SpanVehicle::kCosy,
                 /*ext=*/7);
    proc_.getpid();
  }
  const std::string stats = cat("/proc/span/stats");
  EXPECT_NE(stats.find("started"), std::string::npos);
  const std::string spans = cat("/proc/span/spans");
  EXPECT_NE(spans.find("proc.sample"), std::string::npos);
  EXPECT_NE(spans.find("cosy"), std::string::npos);
}

// --- USK_SPAN: the obs soak arms every Kernel at construction -----------------

TEST(SpanEnvTest, UskSpanArmsEveryNewKernel) {
  const char* env = std::getenv("USK_SPAN");
  if (env == nullptr || std::string(env) != "1") {
    GTEST_SKIP() << "runs under USK_SPAN=1 (ctest -L obs)";
  }
  fs::MemFs fs;
  uk::Kernel k(fs);
  uk::Proc p(k, "env");
  ASSERT_TRUE(k.kspan().is_enabled());
  {
    SpanScope s(k.kspan(), "env.probe", SpanVehicle::kPlain);
    p.getpid();
  }
  const std::vector<SpanRecord> spans = k.kspan().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].crossings, 1u);
  EXPECT_EQ(spans[0].pid, p.task().pid());
}

}  // namespace
}  // namespace usk
