// Tests for ksup, the extension supervisor: circuit-breaker state machine,
// resource quotas (fuel/fds/units/kmalloc/rolling window), graceful
// degradation of Cosy compounds and consolidated calls to their classic
// user-space forms, backoff re-admission, supervised monitors, the
// /proc/sup files, and the syscall-gateway attribution hook.
//
// Every test that asserts breaker transitions calls set_policy explicitly,
// so the aggressive USK_SUP_SPEC the `sup` ctest label exports cannot
// perturb the expected counts.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <cstdio>

#include "cosy/adaptive.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "evmon/monitors.hpp"
#include "fault/kfail.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "sup/fallback.hpp"
#include "sup/monitor.hpp"
#include "sup/slo.hpp"
#include "sup/supervisor.hpp"
#include "trace/histogram.hpp"
#include "trace/span.hpp"
#include "uk/kernel.hpp"
#include "uk/userlib.hpp"
#include "workload/webserver.hpp"

namespace usk {
namespace {

using sup::BreakerPolicy;
using sup::EventKind;
using sup::ExtId;
using sup::Health;
using sup::InvocationGuard;
using sup::Quota;
using sup::Route;
using sup::Supervisor;
using sup::Vehicle;
using sup::ViolationKind;

class SupTest : public ::testing::Test {
 protected:
  SupTest() : kernel_(fs_), proc_(kernel_, "sup-proc") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  /// A small, explicit policy so transitions take few invocations.
  static BreakerPolicy quick_policy() {
    BreakerPolicy p;
    p.violation_threshold = 2;
    p.window_invocations = 16;
    p.probation_clean_runs = 2;
    p.backoff_initial = 2;
    p.backoff_multiplier = 2;
    p.backoff_cap = 8;
    return p;
  }

  void make_file(const char* path, std::string_view content) {
    int fd = proc_.open(path, fs::kOWrOnly | fs::kOCreat);
    ASSERT_GE(fd, 0);
    proc_.write(fd, content.data(), content.size());
    proc_.close(fd);
  }

  /// Finish one guarded invocation with `result` on the given route.
  static void run_invocation(Supervisor& s, ExtId id, Route r,
                             SysRet result) {
    InvocationGuard g(s, id, nullptr, r);
    g.set_result(result);
  }

  /// Run two syscalls under a guard of a fresh `window_units = 1`
  /// extension on `s`: the subscription must attribute their units and
  /// the rolling-window cap must surface as one quota violation.
  void expect_window_quota_trips(Supervisor& s) {
    Quota q;
    q.window_units = 1;  // any real syscall overruns the window
    ExtId id = s.register_extension("window", Vehicle::kConsolidated, q);
    s.set_policy(quick_policy());
    make_file("/w", "w");
    {
      SysRet ret = 0;
      InvocationGuard g(s, id, &proc_.task(), Route::kKernel, &ret);
      int fd = proc_.open("/w", fs::kORdOnly);
      ASSERT_GE(fd, 0);
      proc_.close(fd);
    }
    // The subscription attributed the enclosed syscalls' work units...
    EXPECT_GT(s.stats(id).units_total, 0u);
    // ...and the rolling-window cap surfaced as a quota violation.
    EXPECT_EQ(s.stats(id).quota_overruns, 1u);
    EXPECT_EQ(s.health(id), Health::kProbation);
    bool saw = false;
    for (const sup::SupEvent& e : s.events()) {
      if (e.vkind == ViolationKind::kQuotaWindow) saw = true;
    }
    EXPECT_TRUE(saw);
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

// --- registration + policy -----------------------------------------------------

TEST_F(SupTest, RegistersHealthyExtensions) {
  Supervisor s(kernel_);
  ExtId a = s.register_extension("ext.a", Vehicle::kCosy);
  ExtId b = s.register_extension("ext.b", Vehicle::kConsolidated);
  EXPECT_EQ(s.extension_count(), 2u);
  EXPECT_EQ(s.health(a), Health::kHealthy);
  EXPECT_EQ(s.health(b), Health::kHealthy);
  EXPECT_EQ(s.route(a), Route::kKernel);
  EXPECT_EQ(s.stats(a).invocations, 0u);

  Quota q;
  q.invocation_fuel = 77;
  s.set_quota(a, q);
  EXPECT_EQ(s.quota(a).invocation_fuel, 77u);
  EXPECT_EQ(s.quota(b).invocation_fuel, 0u);
}

TEST_F(SupTest, PolicyFromSpecParses) {
  BreakerPolicy p;
  ASSERT_TRUE(Supervisor::policy_from_spec(
      "threshold=1,window=8,probation=2,backoff=3,mult=4,cap=16", &p));
  EXPECT_EQ(p.violation_threshold, 1u);
  EXPECT_EQ(p.window_invocations, 8u);
  EXPECT_EQ(p.probation_clean_runs, 2u);
  EXPECT_EQ(p.backoff_initial, 3u);
  EXPECT_EQ(p.backoff_multiplier, 4u);
  EXPECT_EQ(p.backoff_cap, 16u);

  // Partial specs patch only the named knobs.
  BreakerPolicy q;
  const BreakerPolicy defaults;
  ASSERT_TRUE(Supervisor::policy_from_spec("threshold=9", &q));
  EXPECT_EQ(q.violation_threshold, 9u);
  EXPECT_EQ(q.window_invocations, defaults.window_invocations);

  // Malformed specs leave the output untouched.
  BreakerPolicy r = defaults;
  EXPECT_FALSE(Supervisor::policy_from_spec("threshold", &r));
  EXPECT_FALSE(Supervisor::policy_from_spec("threshold=x", &r));
  EXPECT_FALSE(Supervisor::policy_from_spec("threshold=0", &r));
  EXPECT_FALSE(Supervisor::policy_from_spec("nope=3", &r));
  EXPECT_EQ(r.violation_threshold, defaults.violation_threshold);

  // Empty clauses are tolerated (trailing commas from shell quoting).
  EXPECT_TRUE(Supervisor::policy_from_spec("threshold=2,,", &r));
  EXPECT_EQ(r.violation_threshold, 2u);
}

// --- the breaker state machine -------------------------------------------------

TEST_F(SupTest, ViolationsDriveProbationThenQuarantine) {
  Supervisor s(kernel_);
  ExtId id = s.register_extension("breaker", Vehicle::kCosy);
  s.set_policy(quick_policy());

  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  EXPECT_EQ(s.health(id), Health::kProbation);
  EXPECT_EQ(s.event_count(EventKind::kProbation), 1u);

  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  EXPECT_EQ(s.health(id), Health::kQuarantined);
  EXPECT_EQ(s.event_count(EventKind::kQuarantine), 1u);
  EXPECT_EQ(s.stats(id).quarantines, 1u);
  EXPECT_EQ(s.stats(id).violations, 2u);
}

TEST_F(SupTest, BackoffRoutesFallbackThenProbe) {
  Supervisor s(kernel_);
  ExtId id = s.register_extension("backoff", Vehicle::kConsolidated);
  s.set_policy(quick_policy());  // backoff_initial = 2
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);

  EXPECT_EQ(s.route(id), Route::kFallback);
  EXPECT_EQ(s.route(id), Route::kFallback);
  EXPECT_EQ(s.route(id), Route::kProbe);

  // A clean probe starts probation; one more clean kernel run (the
  // policy's probation_clean_runs = 2) restores healthy.
  run_invocation(s, id, Route::kProbe, 0);
  EXPECT_EQ(s.health(id), Health::kProbation);
  EXPECT_EQ(s.event_count(EventKind::kProbeClean), 1u);

  ASSERT_EQ(s.route(id), Route::kKernel);
  run_invocation(s, id, Route::kKernel, 0);
  EXPECT_EQ(s.health(id), Health::kHealthy);
  EXPECT_EQ(s.stats(id).readmissions, 1u);
  EXPECT_EQ(s.event_count(EventKind::kReadmission), 1u);
}

TEST_F(SupTest, FailedProbeDoublesBackoff) {
  Supervisor s(kernel_);
  ExtId id = s.register_extension("probe-fail", Vehicle::kConsolidated);
  s.set_policy(quick_policy());  // backoff 2, mult 2, cap 8
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);

  s.route(id);
  s.route(id);
  ASSERT_EQ(s.route(id), Route::kProbe);
  run_invocation(s, id, Route::kProbe, sysret_err(Errno::kEFAULT));
  EXPECT_EQ(s.health(id), Health::kQuarantined);
  EXPECT_EQ(s.stats(id).failed_probes, 1u);
  EXPECT_EQ(s.event_count(EventKind::kProbeFailed), 1u);

  // Backoff doubled to 4: four fallback invocations before the next probe.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s.route(id), Route::kFallback) << "tick " << i;
  }
  EXPECT_EQ(s.route(id), Route::kProbe);
}

TEST_F(SupTest, ProbeFailureInjectionSite) {
  Supervisor s(kernel_);
  ExtId id = s.register_extension("probe-inject", Vehicle::kConsolidated);
  s.set_policy(quick_policy());
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.route(id);
  s.route(id);
  ASSERT_EQ(s.route(id), Route::kProbe);

  // The harness fails the (otherwise clean) probe deterministically.
  fault::SiteConfig cfg;
  cfg.nth = 1;
  kernel_.kfail().arm(fault::Site::kSupProbe, cfg);
  run_invocation(s, id, Route::kProbe, 0);
  kernel_.kfail().disarm_all();

  EXPECT_EQ(s.health(id), Health::kQuarantined);
  EXPECT_EQ(s.stats(id).failed_probes, 1u);
  EXPECT_EQ(s.event_count(EventKind::kProbeFailed), 1u);
}

TEST_F(SupTest, FallbackErrorsAreCountedNotViolations) {
  Supervisor s(kernel_);
  ExtId id = s.register_extension("fb-err", Vehicle::kConsolidated);
  s.set_policy(quick_policy());
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);
  const std::uint64_t violations0 = s.stats(id).violations;

  ASSERT_EQ(s.route(id), Route::kFallback);
  run_invocation(s, id, Route::kFallback, sysret_err(Errno::kEIO));

  EXPECT_EQ(s.stats(id).fallback_errors, 1u);
  EXPECT_EQ(s.event_count(EventKind::kFallbackError), 1u);
  // A failing classic implementation is an error, not kernel misbehavior:
  // it never drives the breaker.
  EXPECT_EQ(s.stats(id).violations, violations0);
  EXPECT_EQ(s.health(id), Health::kQuarantined);
}

// --- quotas through the Cosy executor ------------------------------------------

TEST_F(SupTest, FuelQuotaAbortsCompoundWithRollback) {
  make_file("/blob", "0123456789");
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  Quota q;
  q.invocation_fuel = 4;  // ops 1..4 pass, op 5 trips
  ExtId id = s.register_extension("fuel", Vehicle::kCosy, q);
  s.set_policy(quick_policy());
  ext.supervise(&s, id);

  cosy::CompoundBuilder b;
  cosy::Arg pa = b.str("/blob");
  b.open(pa, cosy::imm(fs::kORdOnly), cosy::imm(0));
  for (int i = 0; i < 8; ++i) b.getpid();
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(1 << 12);

  cosy::CosyResult r = ext.execute(proc_.process(), c, shared);
  EXPECT_EQ(r.ret, sysret_err(Errno::kEDQUOT));
  EXPECT_EQ(ext.stats().quota_aborts, 1u);
  // The fd the aborted compound opened must not leak into the process.
  EXPECT_EQ(ext.stats().fds_rolled_back, 1u);
  EXPECT_EQ(s.stats(id).quota_overruns, 1u);
  EXPECT_EQ(s.health(id), Health::kProbation);

  const std::vector<sup::SupEvent> evs = s.events();
  ASSERT_FALSE(evs.empty());
  bool saw_fuel = false;
  for (const sup::SupEvent& e : evs) {
    if (e.kind == EventKind::kQuotaOverrun &&
        e.vkind == ViolationKind::kQuotaFuel) {
      saw_fuel = true;
    }
  }
  EXPECT_TRUE(saw_fuel);
}

TEST_F(SupTest, FdQuotaAbortsCompound) {
  make_file("/a", "a");
  make_file("/b", "b");
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  Quota q;
  q.invocation_fds = 1;
  ExtId id = s.register_extension("fds", Vehicle::kCosy, q);
  s.set_policy(quick_policy());
  ext.supervise(&s, id);

  cosy::CompoundBuilder b;
  b.open(b.str("/a"), cosy::imm(fs::kORdOnly), cosy::imm(0));
  b.open(b.str("/b"), cosy::imm(fs::kORdOnly), cosy::imm(0));
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(1 << 12);

  cosy::CosyResult r = ext.execute(proc_.process(), c, shared);
  EXPECT_EQ(r.ret, sysret_err(Errno::kEDQUOT));
  EXPECT_EQ(ext.stats().fds_rolled_back, 2u);  // both opens undone
  bool saw = false;
  for (const sup::SupEvent& e : s.events()) {
    if (e.vkind == ViolationKind::kQuotaFds) saw = true;
  }
  EXPECT_TRUE(saw);
}

// accept_recv hands its connection back through an out slot, not its
// result; the compound's fd ledger still owns it, so the fd quota counts
// it and the quota abort closes it.
TEST_F(SupTest, FdQuotaCountsAcceptRecvConnections) {
  net::Net net(kernel_);
  uk::Process& p = proc_.process();
  const int lfd = static_cast<int>(net.sys_socket(p, net::kSockNonblock));
  ASSERT_EQ(net.sys_bind(p, lfd, 7310), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
  std::vector<int> clis;
  for (int i = 0; i < 3; ++i) {
    clis.push_back(static_cast<int>(net.sys_socket(p, net::kSockNonblock)));
    ASSERT_EQ(net.sys_connect(p, clis.back(), 7310), 0);
    ASSERT_EQ(net.sys_send(p, clis.back(), "GET", 3), 3);
  }
  const std::size_t fds0 = p.fds.open_count();

  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  Quota q;
  q.invocation_fds = 2;
  ExtId id = s.register_extension("arecv-fds", Vehicle::kCosy, q);
  s.set_policy(quick_policy());
  ext.supervise(&s, id);

  cosy::CompoundBuilder b;
  for (int i = 0; i < 3; ++i) {
    const std::array<cosy::Arg, 4> args = {
        cosy::imm(lfd), cosy::shared(64 * i), cosy::imm(32),
        cosy::shared(256 + 8 * i)};
    b.sys(uk::Sys::kAcceptRecv, args);
  }
  cosy::SharedBuffer shared(1 << 12);
  cosy::CosyResult r = ext.execute(p, b.finish(), shared);
  EXPECT_EQ(r.ret, sysret_err(Errno::kEDQUOT));
  EXPECT_EQ(r.results[0], 3);
  EXPECT_EQ(r.results[1], 3);
  EXPECT_EQ(ext.stats().fds_rolled_back, 3u);
  EXPECT_EQ(p.fds.open_count(), fds0);
  bool saw = false;
  for (const sup::SupEvent& e : s.events()) {
    if (e.vkind == ViolationKind::kQuotaFds) saw = true;
  }
  EXPECT_TRUE(saw);
  // The closed connections read as closed to their clients.
  char buf[8];
  for (int cli : clis) {
    EXPECT_EQ(net.sys_recv(p, cli, buf, sizeof(buf)), 0);
    proc_.close(cli);
  }
  proc_.close(lfd);
}

// An unsupervised compound that accepts a connection and then aborts
// closes it, like any descriptor the compound opened.
TEST_F(SupTest, CompoundAbortClosesAcceptRecvConnection) {
  net::Net net(kernel_);
  uk::Process& p = proc_.process();
  const int lfd = static_cast<int>(net.sys_socket(p, net::kSockNonblock));
  ASSERT_EQ(net.sys_bind(p, lfd, 7311), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
  const int cli = static_cast<int>(net.sys_socket(p, net::kSockNonblock));
  ASSERT_EQ(net.sys_connect(p, cli, 7311), 0);
  const std::size_t fds0 = p.fds.open_count();

  cosy::CosyExtension ext(kernel_);
  cosy::CompoundBuilder b;
  // Nothing was sent: the recv half is EAGAIN, the connection still
  // comes back through the slot.
  const std::array<cosy::Arg, 4> args = {cosy::imm(lfd), cosy::shared(0),
                                         cosy::imm(32), cosy::shared(64)};
  b.sys(uk::Sys::kAcceptRecv, args);
  b.arith(0, cosy::ArithOp::kDiv, cosy::imm(1), cosy::imm(0));
  cosy::SharedBuffer shared(1 << 12);
  cosy::CosyResult r = ext.execute(p, b.finish(), shared);
  EXPECT_EQ(r.results[0], sysret_err(Errno::kEAGAIN));
  EXPECT_EQ(r.ret, sysret_err(Errno::kEINVAL));
  EXPECT_EQ(ext.stats().fds_rolled_back, 1u);
  EXPECT_EQ(p.fds.open_count(), fds0);
  char buf[8];
  EXPECT_EQ(net.sys_recv(p, cli, buf, sizeof(buf)), 0);
  proc_.close(cli);
  proc_.close(lfd);
}

TEST_F(SupTest, UnitQuotaAbortsCompound) {
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  Quota q;
  q.invocation_units = 60;  // ~2 ops at the default 25-unit decode cost
  ExtId id = s.register_extension("units", Vehicle::kCosy, q);
  s.set_policy(quick_policy());
  ext.supervise(&s, id);

  cosy::CompoundBuilder b;
  for (int i = 0; i < 16; ++i) b.getpid();
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(1 << 12);

  cosy::CosyResult r = ext.execute(proc_.process(), c, shared);
  EXPECT_EQ(r.ret, sysret_err(Errno::kEDQUOT));
  EXPECT_LT(r.ops_run, c.ops.size());
  bool saw = false;
  for (const sup::SupEvent& e : s.events()) {
    if (e.vkind == ViolationKind::kQuotaUnits) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST_F(SupTest, CosyFuelInjectionVoidsBudgetDeterministically) {
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  ExtId id = s.register_extension("fuel-inject", Vehicle::kCosy);
  s.set_policy(quick_policy());
  ext.supervise(&s, id);

  fault::SiteConfig cfg;
  cfg.nth = 2;  // exactly the second compound
  kernel_.kfail().arm(fault::Site::kCosyFuel, cfg);

  cosy::CompoundBuilder b;
  b.getpid();
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(1 << 12);

  EXPECT_EQ(ext.execute(proc_.process(), c, shared).ret, 0);
  cosy::CosyResult r = ext.execute(proc_.process(), c, shared);
  // The injection hits at compound ENTRY: no op ran, no side effect.
  EXPECT_EQ(r.ret, sysret_err(Errno::kEDQUOT));
  EXPECT_EQ(r.ops_run, 0u);
  EXPECT_EQ(ext.execute(proc_.process(), c, shared).ret, 0);
  kernel_.kfail().disarm_all();

  EXPECT_EQ(ext.stats().quota_aborts, 1u);
  EXPECT_EQ(s.stats(id).quota_overruns, 1u);
  bool saw = false;
  for (const sup::SupEvent& e : s.events()) {
    if (e.vkind == ViolationKind::kQuotaFuel) saw = true;
  }
  EXPECT_TRUE(saw);
}

// --- the syscall gateway -------------------------------------------------------

TEST_F(SupTest, TransientFaultsNeverSurfaceThroughSupervisedCompounds) {
  // Enough compounds on one Kernel for the `sup` label's transient
  // cosy_fuel spec to fire on this Kernel's injector: each recovered
  // fault charges its refill stall and the compound still succeeds, so
  // the supervisor records no violation.
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  ExtId id = s.register_extension("transient", Vehicle::kCosy);
  ext.supervise(&s, id);

  cosy::CompoundBuilder b;
  b.getpid();
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(1 << 12);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ext.execute(proc_.process(), c, shared).ret, 0) << "run " << i;
  }
  EXPECT_EQ(s.stats(id).kernel_runs, 100u);
  EXPECT_EQ(s.stats(id).violations, 0u);
  EXPECT_EQ(s.health(id), Health::kHealthy);
}

TEST_F(SupTest, GatewayAttributesUnitsAndEnforcesWindowQuota) {
  Supervisor s(kernel_);
  expect_window_quota_trips(s);
}

TEST_F(SupTest, GatewayKeepsAttributingWhileAnotherKernelIsSupervised) {
  Supervisor s(kernel_);
  fs::MemFs other_fs;
  uk::Kernel other(other_fs);
  Supervisor later(other);  // built last: must not steal s's syscalls
  expect_window_quota_trips(s);
}

TEST_F(SupTest, GatewayKeepsAttributingAfterANestedSupervisorDies) {
  Supervisor s(kernel_);
  { Supervisor inner(kernel_); }
  expect_window_quota_trips(s);
}

TEST_F(SupTest, GatewayArmsAndDisarmsWithSupervisorLifetime) {
  EXPECT_FALSE(uk::sup_gateway_armed());
  {
    Supervisor s1(kernel_);
    EXPECT_TRUE(uk::sup_gateway_armed());
    {
      Supervisor s2(kernel_);
      EXPECT_TRUE(uk::sup_gateway_armed());
    }
    // Destroying the inner supervisor leaves the outer one live.
    EXPECT_TRUE(uk::sup_gateway_armed());
    EXPECT_TRUE(kernel_.has_subscribers());
  }
  EXPECT_FALSE(uk::sup_gateway_armed());
  EXPECT_FALSE(kernel_.has_subscribers());

  // Unsupervised syscalls run normally with no subscriber.
  make_file("/plain", "x");
  int fd = proc_.open("/plain", fs::kORdOnly);
  EXPECT_GE(fd, 0);
  proc_.close(fd);
}

// --- consolidated-call degradation ---------------------------------------------

TEST_F(SupTest, KmallocQuotaDegradesAcceptRecvToClassic) {
  net::Net net(kernel_);
  uk::Process& p = proc_.process();
  Supervisor s(kernel_);
  Quota q;
  q.invocation_kmalloc = 16;  // the 64-byte staging buffer overruns it
  ExtId id = s.register_extension("arecv", Vehicle::kConsolidated, q);
  s.set_policy(quick_policy());

  int lfd = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_bind(p, lfd, 7300), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
  int cli = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_connect(p, cli, 7300), 0);
  const char req[] = "GET /x";
  ASSERT_EQ(net.sys_send(p, cli, req, sizeof(req)),
            static_cast<SysRet>(sizeof(req)));

  char buf[64] = {};
  int connfd = -1;
  SysRet n = sup::supervised_accept_recv(s, id, net, kernel_, p, lfd, buf,
                                         sizeof(buf), &connfd);
  // The kernel path was killed by the kmalloc quota BEFORE accepting, so
  // the classic decomposition served the request in the same call.
  EXPECT_EQ(n, static_cast<SysRet>(sizeof(req)));
  EXPECT_STREQ(buf, req);
  ASSERT_GE(connfd, 0);
  EXPECT_EQ(s.stats(id).quota_overruns, 1u);
  EXPECT_EQ(s.stats(id).fallback_runs, 1u);
  bool saw = false;
  for (const sup::SupEvent& e : s.events()) {
    if (e.vkind == ViolationKind::kQuotaKmalloc) saw = true;
  }
  EXPECT_TRUE(saw);

  proc_.close(connfd);
  proc_.close(cli);
  proc_.close(lfd);
}

TEST_F(SupTest, SendfileDecomposesWhenQuarantined) {
  const std::size_t kSize = 10000;
  std::string doc(kSize, 'd');
  make_file("/doc.bin", doc);

  net::Net net(kernel_);
  uk::Process& p = proc_.process();
  Supervisor s(kernel_);
  ExtId id = s.register_extension("sendfile", Vehicle::kConsolidated);
  s.set_policy(quick_policy());

  int lfd = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_bind(p, lfd, 7301), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
  int cli = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_connect(p, cli, 7301), 0);
  int srv = static_cast<int>(net.sys_accept(p, lfd));
  ASSERT_GE(srv, 0);

  auto drain = [&](std::size_t want) {
    std::string got;
    std::vector<char> chunk(4096);
    while (got.size() < want) {
      SysRet r = net.sys_recv(p, cli, chunk.data(), chunk.size());
      if (r <= 0) break;
      got.append(chunk.data(), static_cast<std::size_t>(r));
    }
    return got;
  };

  // Healthy: the one-crossing kernel path.
  SysRet n1 = sup::supervised_sendfile(s, id, net, kernel_, p, srv,
                                       "/doc.bin", 0, kSize);
  EXPECT_EQ(n1, static_cast<SysRet>(kSize));
  EXPECT_EQ(drain(kSize), doc);
  EXPECT_EQ(s.stats(id).kernel_runs, 1u);

  // Quarantined: the classic open/read/send/close decomposition delivers
  // the same bytes.
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);
  SysRet n2 = sup::supervised_sendfile(s, id, net, kernel_, p, srv,
                                       "/doc.bin", 0, kSize);
  EXPECT_EQ(n2, static_cast<SysRet>(kSize));
  EXPECT_EQ(drain(kSize), doc);
  EXPECT_EQ(s.stats(id).fallback_runs, 1u);

  proc_.close(srv);
  proc_.close(cli);
  proc_.close(lfd);
}

TEST_F(SupTest, QuarantineCycleReadmitsThroughConsolidatedCalls) {
  const std::size_t kSize = 4096;
  std::string doc(kSize, 'q');
  make_file("/cycle.bin", doc);

  net::Net net(kernel_);
  uk::Process& p = proc_.process();
  Supervisor s(kernel_);
  ExtId id = s.register_extension("cycle", Vehicle::kConsolidated);
  BreakerPolicy pol = quick_policy();
  pol.probation_clean_runs = 1;  // a single clean probe re-admits
  pol.backoff_initial = 1;
  s.set_policy(pol);

  int lfd = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_bind(p, lfd, 7302), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
  int cli = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_connect(p, cli, 7302), 0);
  int srv = static_cast<int>(net.sys_accept(p, lfd));
  ASSERT_GE(srv, 0);

  s.record_violation(id, ViolationKind::kWatchdogKill, Errno::kEKILLED);
  s.record_violation(id, ViolationKind::kWatchdogKill, Errno::kEKILLED);
  ASSERT_EQ(s.health(id), Health::kQuarantined);

  // Every call during the cycle serves the full document: fallback while
  // quarantined, then the clean probe, then the healthy kernel path.
  std::vector<char> chunk(kSize);
  for (int i = 0; i < 3; ++i) {
    SysRet n = sup::supervised_sendfile(s, id, net, kernel_, p, srv,
                                        "/cycle.bin", 0, kSize);
    EXPECT_EQ(n, static_cast<SysRet>(kSize)) << "call " << i;
    std::size_t got = 0;
    while (got < kSize) {
      SysRet r = net.sys_recv(p, cli, chunk.data(), chunk.size());
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    EXPECT_EQ(got, kSize) << "call " << i;
  }

  EXPECT_EQ(s.health(id), Health::kHealthy);
  EXPECT_EQ(s.stats(id).fallback_runs, 1u);
  EXPECT_EQ(s.stats(id).probes, 1u);
  EXPECT_EQ(s.stats(id).readmissions, 1u);
  EXPECT_EQ(s.event_count(EventKind::kReadmission), 1u);

  proc_.close(srv);
  proc_.close(cli);
  proc_.close(lfd);
}

TEST_F(SupTest, FallbackInjectionSurfacesAsFallbackError) {
  net::Net net(kernel_);
  uk::Process& p = proc_.process();
  Supervisor s(kernel_);
  ExtId id = s.register_extension("fb-inject", Vehicle::kConsolidated);
  s.set_policy(quick_policy());
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);
  make_file("/fb.bin", "abc");

  int lfd = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_bind(p, lfd, 7303), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
  int cli = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_connect(p, cli, 7303), 0);
  int srv = static_cast<int>(net.sys_accept(p, lfd));
  ASSERT_GE(srv, 0);

  fault::SiteConfig cfg;
  cfg.nth = 1;
  kernel_.kfail().arm(fault::Site::kSupFallback, cfg);
  SysRet n = sup::supervised_sendfile(s, id, net, kernel_, p, srv, "/fb.bin",
                                      0, 3);
  kernel_.kfail().disarm_all();

  EXPECT_EQ(n, sysret_err(Errno::kEIO));
  EXPECT_EQ(s.stats(id).fallback_errors, 1u);
  EXPECT_EQ(s.event_count(EventKind::kFallbackError), 1u);

  proc_.close(srv);
  proc_.close(cli);
  proc_.close(lfd);
}

// --- supervised monitors -------------------------------------------------------

TEST_F(SupTest, NoisyMonitorIsQuarantinedAndEventsDeferred) {
  Supervisor s(kernel_);
  evmon::RefCountMonitor inner;
  sup::SupervisedMonitor mon(s, "refmon", inner);
  BreakerPolicy pol = quick_policy();
  pol.probation_clean_runs = 1;
  pol.backoff_initial = 2;
  s.set_policy(pol);

  int obj_a = 0;
  int obj_b = 0;
  auto dec = [](void* obj) {
    evmon::Event e;
    e.object = obj;
    e.type = evmon::kRefDec;
    return e;
  };
  auto inc = [](void* obj) {
    evmon::Event e;
    e.object = obj;
    e.type = evmon::kRefInc;
    return e;
  };

  // Two drop-below-zero anomalies trip the breaker.
  mon.feed(dec(&obj_a));
  EXPECT_EQ(s.health(mon.ext()), Health::kProbation);
  mon.feed(dec(&obj_b));
  ASSERT_EQ(s.health(mon.ext()), Health::kQuarantined);
  const std::uint64_t seen_at_quarantine = inner.events_seen();

  // Quarantined: the kernel stops paying for the monitor; events go to
  // the user-space deferral log instead (backoff_initial = 2).
  mon.feed(inc(&obj_a));
  mon.feed(inc(&obj_a));
  EXPECT_EQ(mon.deferred_count(), 2u);
  EXPECT_EQ(inner.events_seen(), seen_at_quarantine);

  // Backoff expired: the next event is the re-admission probe; a clean
  // run through the inner monitor restores it.
  mon.feed(inc(&obj_b));
  EXPECT_EQ(s.health(mon.ext()), Health::kHealthy);
  EXPECT_EQ(s.stats(mon.ext()).readmissions, 1u);

  std::vector<evmon::Event> deferred = mon.take_deferred();
  ASSERT_EQ(deferred.size(), 2u);
  EXPECT_EQ(deferred[0].object, &obj_a);
  EXPECT_EQ(mon.deferred_count(), 0u);
}

// --- Cosy extension degradation (AdaptiveRegion) -------------------------------

TEST_F(SupTest, AdaptiveRegionDegradesToClassicAndRecovers) {
  make_file("/adapt.txt", "hello adaptive");
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  cosy::SharedBuffer shared(1 << 12);

  int classic_runs = 0;
  cosy::CompoundBuilder b;
  int o = b.open(b.str("/adapt.txt"), cosy::imm(fs::kORdOnly), cosy::imm(0));
  b.read(cosy::result_of(o), cosy::shared(0), cosy::imm(14));
  b.close(cosy::result_of(o));
  cosy::AdaptiveRegion region(
      ext, shared, "readfile",
      [&classic_runs](uk::Proc& pr) {
        ++classic_runs;
        char buf[32];
        int fd = pr.open("/adapt.txt", fs::kORdOnly);
        if (fd >= 0) {
          pr.read(fd, buf, sizeof(buf));
          pr.close(fd);
        }
      },
      b.finish());

  ExtId id = s.register_extension("adaptive", Vehicle::kCosy);
  BreakerPolicy pol = quick_policy();
  pol.probation_clean_runs = 1;
  pol.backoff_initial = 1;
  s.set_policy(pol);
  region.supervise(&s, id);

  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);

  // Quarantined: run() must serve via the registered classic form.
  EXPECT_EQ(region.run(proc_), cosy::AdaptiveRegion::Decision::kClassic);
  EXPECT_EQ(classic_runs, 1);
  EXPECT_EQ(s.stats(id).fallback_runs, 1u);

  // Backoff expired: the probe re-runs the compound and re-admits.
  EXPECT_EQ(region.run(proc_), cosy::AdaptiveRegion::Decision::kCosy);
  EXPECT_EQ(s.health(id), Health::kHealthy);
  EXPECT_EQ(s.stats(id).readmissions, 1u);
}

// --- one supervised invocation: every vehicle degrades the same way ----------

/// A region whose compound and classic form each make one getpid; the
/// classic form counts its runs in *classic_runs.
cosy::AdaptiveRegion getpid_region(cosy::CosyExtension& ext,
                                   cosy::SharedBuffer& shared,
                                   int* classic_runs) {
  cosy::CompoundBuilder b;
  b.getpid(0);
  return cosy::AdaptiveRegion(
      ext, shared, "getpid",
      [classic_runs](uk::Proc& pr) {
        ++*classic_runs;
        pr.getpid();
      },
      b.finish());
}

/// The degradation contract Supervisor::invoke gives every vehicle, driven
/// through one vehicle's entry point. `run` makes one invocation of `id`
/// and returns what its caller sees, or nullopt when the entry point
/// reports no errno (AdaptiveRegion::run returns the form that served).
void expect_uniform_degradation(
    Supervisor& s, ExtId id, uk::Kernel& k,
    const std::function<std::optional<SysRet>()>& run) {
  BreakerPolicy pol;
  pol.violation_threshold = 1;
  pol.backoff_initial = 1;
  s.set_policy(pol);
  auto quarantine = [&] {
    while (s.health(id) != Health::kQuarantined) {
      s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
    }
  };
  auto spans_named = [](const std::vector<trace::SpanRecord>& spans,
                        const char* name) {
    std::vector<trace::SpanRecord> out;
    for (const trace::SpanRecord& sp : spans) {
      if (std::string_view(sp.name) == name) out.push_back(sp);
    }
    return out;
  };
  k.kspan().set_enabled(true);
  (void)k.kspan().drain();

  // Quarantined: one fallback run, in one child span of the request.
  quarantine();
  std::uint64_t request = 0;
  {
    trace::SpanScope req(k.kspan(), "test.request");
    request = req.id();
    const std::optional<SysRet> r = run();
    if (r) {
      EXPECT_GE(*r, 0);
    }
  }
  EXPECT_EQ(s.stats(id).fallback_runs, 1u);
  std::vector<trace::SpanRecord> fb =
      spans_named(k.kspan().drain(), "sup.fallback");
  ASSERT_EQ(fb.size(), 1u);
  EXPECT_EQ(fb[0].vehicle, trace::SpanVehicle::kFallback);
  EXPECT_NE(request, 0u);
  EXPECT_EQ(fb[0].parent, request);

  // Backoff 1: the next invocation is the re-admission probe.
  (void)run();
  EXPECT_EQ(s.stats(id).probes, 1u);
  EXPECT_EQ(spans_named(k.kspan().drain(), "sup.probe").size(), 1u);

  // A hard fault at the fallback site surfaces as a fallback error.
  quarantine();
  fault::SiteConfig cfg;
  cfg.nth = 1;
  k.kfail().arm(fault::Site::kSupFallback, cfg);
  const std::optional<SysRet> r = run();
  k.kfail().disarm(fault::Site::kSupFallback);
  if (r) {
    EXPECT_EQ(*r, sysret_err(Errno::kEIO));
  }
  EXPECT_EQ(s.stats(id).fallback_errors, 1u);
  k.kspan().set_enabled(false);
}

TEST_F(SupTest, EveryVehicleDegradesTheSameWay) {
  uk::Process& p = proc_.process();
  {
    SCOPED_TRACE("consolidated sendfile");
    make_file("/parity.bin", "parity");
    net::Net net(kernel_);
    Supervisor s(kernel_);
    ExtId id = s.register_extension("sendfile", Vehicle::kConsolidated);
    int lfd = static_cast<int>(net.sys_socket(p));
    ASSERT_EQ(net.sys_bind(p, lfd, 7311), 0);
    ASSERT_EQ(net.sys_listen(p, lfd, 4), 0);
    int cli = static_cast<int>(net.sys_socket(p));
    ASSERT_EQ(net.sys_connect(p, cli, 7311), 0);
    int srv = static_cast<int>(net.sys_accept(p, lfd));
    ASSERT_GE(srv, 0);
    expect_uniform_degradation(s, id, kernel_, [&]() -> std::optional<SysRet> {
      const SysRet n = sup::supervised_sendfile(s, id, net, kernel_, p, srv,
                                                "/parity.bin", 0, 6);
      char buf[8];
      if (n > 0) {
        EXPECT_EQ(net.sys_recv(p, cli, buf, sizeof buf), n);
      }
      return n;
    });
    proc_.close(srv);
    proc_.close(cli);
    proc_.close(lfd);
  }
  {
    SCOPED_TRACE("ring_enter");
    ring::RingDev rdev(kernel_);
    Supervisor s(kernel_);
    ExtId id = s.register_extension("ring", Vehicle::kRing);
    const int fd = static_cast<int>(rdev.sys_ring_setup(p, 8, 256));
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(rdev.supervise(p, fd, s, id).ok());
    std::shared_ptr<ring::Ring> rg = rdev.user_map(p, fd).value();
    expect_uniform_degradation(s, id, kernel_, [&]() -> std::optional<SysRet> {
      ring::Sqe nop{};
      EXPECT_TRUE(rg->user_prepare(nop));
      const SysRet n =
          rdev.sys_ring_enter(p, fd, ring::RingDev::kDrainAll, 0, 0);
      ring::Cqe cqes[8];
      if (n > 0) {
        EXPECT_EQ(rg->user_reap(cqes, 8), static_cast<std::size_t>(n));
      }
      return n;
    });
    proc_.close(fd);
  }
  {
    SCOPED_TRACE("AdaptiveRegion");
    cosy::CosyExtension ext(kernel_);
    cosy::SharedBuffer shared(1 << 12);
    int classic_runs = 0;
    cosy::AdaptiveRegion region = getpid_region(ext, shared, &classic_runs);
    Supervisor s(kernel_);
    ExtId id = s.register_extension("adaptive", Vehicle::kCosy);
    region.supervise(&s, id);
    expect_uniform_degradation(s, id, kernel_, [&]() -> std::optional<SysRet> {
      (void)region.run(proc_);
      return std::nullopt;
    });
    // Only the quarantined run was served classically: the probe ran the
    // compound, and the injected fallback fault ran nothing.
    EXPECT_EQ(classic_runs, 1);
  }
}

TEST_F(SupTest, SideEffectFreeFailureIsRescuedAsAFallbackRun) {
  Supervisor s(kernel_);
  cosy::CosyExtension ext(kernel_);
  cosy::SharedBuffer shared(1 << 12);
  int classic_runs = 0;
  cosy::AdaptiveRegion region = getpid_region(ext, shared, &classic_runs);
  ExtId id = s.register_extension("adaptive", Vehicle::kCosy);
  BreakerPolicy pol = quick_policy();
  pol.backoff_initial = 1;
  s.set_policy(pol);
  region.supervise(&s, id);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);
  ASSERT_EQ(s.health(id), Health::kQuarantined);
  EXPECT_EQ(region.run(proc_), cosy::AdaptiveRegion::Decision::kClassic);
  ASSERT_EQ(s.stats(id).fallback_runs, 1u);
  const std::uint64_t units0 = s.stats(id).units_total;

  // The probe's compound loses its fuel at entry, before op 0: nothing
  // happened yet, so the classic form serves the run, as a fallback run
  // whose syscalls the supervisor sees.
  fault::SiteConfig cfg;
  cfg.nth = 1;
  kernel_.kfail().arm(fault::Site::kCosyFuel, cfg);
  EXPECT_EQ(region.run(proc_), cosy::AdaptiveRegion::Decision::kClassic);
  kernel_.kfail().disarm(fault::Site::kCosyFuel);

  EXPECT_EQ(classic_runs, 2);
  EXPECT_EQ(s.stats(id).failed_probes, 1u);
  EXPECT_EQ(s.stats(id).fallback_runs, 2u);
  EXPECT_EQ(s.stats(id).fallback_errors, 0u);
  EXPECT_GT(s.stats(id).units_total, units0);
  EXPECT_EQ(s.health(id), Health::kQuarantined);
}

// --- /proc/sup -----------------------------------------------------------------

TEST_F(SupTest, ProcFilesRenderSupervisorState) {
  Supervisor s(kernel_);
  fs::ProcFs& pfs = kernel_.mount_procfs();
  s.register_proc(pfs);

  Quota q;
  q.invocation_fuel = 500;
  ExtId id = s.register_extension("websrv0.cosy", Vehicle::kCosy, q);
  s.set_policy(quick_policy());
  s.record_violation(id, ViolationKind::kSegFault, Errno::kEFAULT);

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

  const std::string exts = cat("/proc/sup/extensions");
  EXPECT_NE(exts.find("websrv0.cosy"), std::string::npos);
  EXPECT_NE(exts.find("probation"), std::string::npos);

  const std::string quotas = cat("/proc/sup/quotas");
  EXPECT_NE(quotas.find("websrv0.cosy"), std::string::npos);
  EXPECT_NE(quotas.find("500"), std::string::npos);

  const std::string events = cat("/proc/sup/events");
  EXPECT_NE(events.find("violation"), std::string::npos);
  EXPECT_NE(events.find("segfault"), std::string::npos);
}

// --- the SLO monitor -----------------------------------------------------------

TEST_F(SupTest, SloSustainedLatencyBurnTripsBreakerAndRecovers) {
  Supervisor s(kernel_);
  s.set_policy(quick_policy());  // violation_threshold = 2
  ExtId id = s.register_extension("slo.latency", Vehicle::kCosy);
  sup::SloMonitor mon(s);
  sup::SloPolicy sp;
  sp.latency_threshold_ns = 1'000'000;  // 1 ms: real probe runs stay under
  sp.window = 4;
  sp.breach_windows = 2;
  mon.set_policy(id, sp);

  // Injected latency regression: 8 observations at 50 ms are 2
  // consecutive fully-bad windows -> one kSloBreach on the breaker.
  for (int i = 0; i < 8; ++i) mon.observe(id, 50'000'000, true);
  EXPECT_EQ(mon.state(id).violations, 1u);
  EXPECT_EQ(s.stats(id).violations, 1u);
  EXPECT_EQ(s.health(id), Health::kProbation);

  // The burn keeps going: a second sustained breach quarantines.
  for (int i = 0; i < 8; ++i) mon.observe(id, 50'000'000, true);
  EXPECT_EQ(s.health(id), Health::kQuarantined);
  EXPECT_EQ(s.stats(id).quarantines, 1u);

  // Recovery through the ordinary backoff machinery: two fallback ticks,
  // a clean probe starts probation, one clean kernel run re-admits.
  EXPECT_EQ(s.route(id), Route::kFallback);
  EXPECT_EQ(s.route(id), Route::kFallback);
  ASSERT_EQ(s.route(id), Route::kProbe);
  run_invocation(s, id, Route::kProbe, 0);
  EXPECT_EQ(s.health(id), Health::kProbation);
  ASSERT_EQ(s.route(id), Route::kKernel);
  run_invocation(s, id, Route::kKernel, 0);
  EXPECT_EQ(s.health(id), Health::kHealthy);
  EXPECT_EQ(s.stats(id).readmissions, 1u);
}

TEST_F(SupTest, SloObservesKernelRoutesButNotFallback) {
  Supervisor s(kernel_);
  s.set_policy(quick_policy());
  ExtId id = s.register_extension("slo.routes", Vehicle::kConsolidated);
  sup::SloMonitor mon(s);

  // The kernel route reports its wall latency through the guard epilogue.
  run_invocation(s, id, Route::kKernel, 0);
  EXPECT_EQ(mon.state(id).observed, 1u);

  // Fallback runs execute the user-space decomposition: scoring their
  // latency would let a quarantine perpetuate itself.
  run_invocation(s, id, Route::kFallback, 0);
  EXPECT_EQ(mon.state(id).observed, 1u);

  // Probes are kernel-path and must be scored (a probe that still burns
  // the SLO should not sneak back in unobserved).
  run_invocation(s, id, Route::kProbe, 0);
  EXPECT_EQ(mon.state(id).observed, 2u);

  // Failed invocations count as errors and bad observations.
  mon.observe(id, 10, /*ok=*/false);
  EXPECT_EQ(mon.state(id).observed, 3u);
  EXPECT_EQ(mon.state(id).errors, 1u);
  EXPECT_EQ(mon.state(id).bad, 1u);
}

TEST_F(SupTest, SloErrorBurnRateBreachesWithoutLatencyThreshold) {
  Supervisor s(kernel_);
  s.set_policy(quick_policy());
  ExtId id = s.register_extension("slo.errors", Vehicle::kConsolidated);
  sup::SloMonitor mon(s);
  sup::SloPolicy sp;  // latency unscored (threshold 0): errors alone burn
  sp.window = 4;
  sp.breach_windows = 1;
  mon.set_policy(id, sp);

  for (int i = 0; i < 4; ++i) mon.observe(id, 10, /*ok=*/false);
  EXPECT_EQ(mon.state(id).violations, 1u);
  EXPECT_EQ(s.stats(id).violations, 1u);
  EXPECT_EQ(s.health(id), Health::kProbation);
}

TEST_F(SupTest, SloToleratesBurstsBelowBreachFraction) {
  Supervisor s(kernel_);
  s.set_policy(quick_policy());
  ExtId id = s.register_extension("slo.burst", Vehicle::kCosy);
  sup::SloMonitor mon(s);
  sup::SloPolicy sp;
  sp.latency_threshold_ns = 1'000'000;
  sp.window = 4;
  sp.breach_windows = 1;  // a window breaches above half bad
  mon.set_policy(id, sp);

  // Half the window slow is AT the fraction, not over it: no breach.
  for (int i = 0; i < 2; ++i) mon.observe(id, 50'000'000, true);
  for (int i = 0; i < 2; ++i) mon.observe(id, 10, true);
  EXPECT_EQ(mon.state(id).windows_breached, 0u);
  EXPECT_EQ(mon.state(id).bad, 2u);
  EXPECT_EQ(s.health(id), Health::kHealthy);
}

TEST_F(SupTest, SloBreachStreakResetsOnCleanWindow) {
  Supervisor s(kernel_);
  s.set_policy(quick_policy());
  ExtId id = s.register_extension("slo.streak", Vehicle::kCosy);
  sup::SloMonitor mon(s);
  sup::SloPolicy sp;
  sp.latency_threshold_ns = 1'000'000;
  sp.window = 4;
  sp.breach_windows = 2;  // needs CONSECUTIVE bad windows
  mon.set_policy(id, sp);

  for (int i = 0; i < 4; ++i) mon.observe(id, 50'000'000, true);  // bad
  for (int i = 0; i < 4; ++i) mon.observe(id, 10, true);          // clean
  for (int i = 0; i < 4; ++i) mon.observe(id, 50'000'000, true);  // bad
  EXPECT_EQ(mon.state(id).windows_breached, 2u);
  EXPECT_EQ(mon.state(id).violations, 0u);  // streak never reached 2
  EXPECT_EQ(s.health(id), Health::kHealthy);
}

TEST_F(SupTest, SloProcFileAndMetricsRenderMatchingPercentiles) {
  Supervisor s(kernel_);
  fs::ProcFs& pfs = kernel_.mount_procfs();
  sup::SloMonitor mon(s);
  mon.register_proc(pfs);
  ExtId id = s.register_extension("slo.metrics", Vehicle::kCosy);
  sup::SloPolicy sp;
  sp.latency_threshold_ns = 1'000'000;
  mon.set_policy(id, sp);

  // Feed a known latency shape and mirror it into a reference histogram:
  // the /proc/metrics summary quantiles must be bit-identical, because
  // the monitor records into the same log2 histogram implementation the
  // ktrace views render percentiles from.
  trace::Histogram ref;
  for (int i = 0; i < 90; ++i) {
    mon.observe(id, 1'000, true);
    ref.record(1'000);
  }
  for (int i = 0; i < 10; ++i) {
    mon.observe(id, 200'000, true);
    ref.record(200'000);
  }

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
  const std::string slo = cat("/proc/sup/slo");
  EXPECT_NE(slo.find("slo.metrics"), std::string::npos);
  EXPECT_NE(slo.find("100"), std::string::npos);  // observed column

  const std::string prom = cat("/proc/metrics");
  const trace::HistogramSnapshot snap = ref.snapshot();
  char line[160];
  std::snprintf(line, sizeof line,
                "usk_ext_latency_ns{extension=\"slo.metrics\","
                "quantile=\"0.5\"} %llu",
                static_cast<unsigned long long>(snap.percentile(50.0)));
  EXPECT_NE(prom.find(line), std::string::npos) << prom;
  std::snprintf(line, sizeof line,
                "usk_ext_latency_ns{extension=\"slo.metrics\","
                "quantile=\"0.99\"} %llu",
                static_cast<unsigned long long>(snap.percentile(99.0)));
  EXPECT_NE(prom.find(line), std::string::npos) << prom;
  EXPECT_NE(prom.find("usk_slo_breaches_total{extension=\"slo.metrics\"}"),
            std::string::npos);
}

/// The whole text of `path` as `p` reads it.
std::string read_proc(uk::Proc& p, const char* path) {
  std::string out;
  const int fd = p.open(path, fs::kORdOnly);
  if (fd < 0) return out;
  char buf[2048];
  for (SysRet n; (n = p.read(fd, buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  p.close(fd);
  return out;
}

TEST(SloMetricsTest, EachKernelScrapesOnlyItsOwnMonitorsSeries) {
  struct Box {
    fs::MemFs fs;
    uk::Kernel kernel{fs};
    uk::Proc proc{kernel, "scrape"};
  };
  Box a;
  Box b;
  Box c;
  Supervisor sa(a.kernel);
  Supervisor sb(b.kernel);
  sup::SloMonitor ma(sa);
  sup::SloMonitor mb(sb);
  ma.register_proc(a.kernel.mount_procfs());
  mb.register_proc(b.kernel.mount_procfs());
  c.kernel.mount_procfs();
  // Same extension name on both monitors: two series, never merged.
  const ExtId xa = sa.register_extension("x", Vehicle::kCosy);
  const ExtId xb = sb.register_extension("x", Vehicle::kCosy);
  for (int i = 0; i < 10; ++i) ma.observe(xa, 1'000, true);
  for (int i = 0; i < 30; ++i) mb.observe(xb, 1'000, true);

  const std::string pa = read_proc(a.proc, "/proc/metrics");
  const std::string pb = read_proc(b.proc, "/proc/metrics");
  const std::string pc = read_proc(c.proc, "/proc/metrics");
  EXPECT_NE(pa.find("usk_ext_latency_ns_count{extension=\"x\"} 10\n"),
            std::string::npos)
      << pa;
  EXPECT_NE(pb.find("usk_ext_latency_ns_count{extension=\"x\"} 30\n"),
            std::string::npos)
      << pb;
  EXPECT_EQ(pc.find("usk_ext_latency_ns"), std::string::npos) << pc;
  EXPECT_EQ(pc.find("usk_slo_breaches_total"), std::string::npos) << pc;
}

TEST_F(SupTest, SloSeriesLeaveProcMetricsWithTheirMonitor) {
  Supervisor s(kernel_);
  fs::ProcFs& pfs = kernel_.mount_procfs();
  const ExtId id = s.register_extension("slo.gone", Vehicle::kCosy);
  {
    sup::SloMonitor mon(s);
    mon.register_proc(pfs);
    mon.observe(id, 1'000, true);
    const std::string live = read_proc(proc_, "/proc/metrics");
    EXPECT_NE(live.find("usk_ext_latency_ns_count{extension=\"slo.gone\"} 1\n"),
              std::string::npos)
        << live;
  }
  // The scrape after the monitor is gone must not call into it.
  const std::string prom = read_proc(proc_, "/proc/metrics");
  EXPECT_EQ(prom.find("usk_ext_latency_ns"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("usk_slo_breaches_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("usk_syscall_latency_ns"), std::string::npos) << prom;
  EXPECT_EQ(proc_.open("/proc/sup/slo", fs::kORdOnly),
            sysret_err(Errno::kENOENT));
}

// --- the full degradation story under a fault storm ----------------------------

TEST_F(SupTest, SupervisedWebserverCompletesAllRequestsUnderFuelStorm) {
  Supervisor s(kernel_);
  BreakerPolicy pol;
  pol.violation_threshold = 1;
  pol.window_invocations = 16;
  pol.probation_clean_runs = 1;
  pol.backoff_initial = 1;
  pol.backoff_multiplier = 2;
  pol.backoff_cap = 4;
  s.set_policy(pol);

  net::Net net(kernel_);
  workload::WebServerConfig cfg;
  cfg.workers = 1;  // deterministic injection schedule
  cfg.conns_per_worker = 8;
  cfg.requests_per_conn = 4;
  cfg.file_bytes = 2048;
  cfg.files = 2;
  cfg.base_port = 8300;
  cfg.mode = workload::ServeMode::kCosy;
  cfg.supervisor = &s;

  uk::Proc www(kernel_, "www-pop");
  workload::populate_www(www, cfg);

  // A hard fuel storm: ~15% of compounds have their budget voided at
  // entry. Every voided compound is rescued by the classic loop, so the
  // client still receives EVERY response in full.
  ASSERT_TRUE(kernel_.kfail().apply_spec("seed=11,cosy_fuel:p=0.15").ok());
  workload::WebServerReport rep = workload::run_webserver(kernel_, net, cfg);
  kernel_.kfail().disarm_all();

  const std::uint64_t expect =
      cfg.workers * cfg.conns_per_worker * cfg.requests_per_conn;
  EXPECT_EQ(rep.requests, expect);
  EXPECT_EQ(rep.conns, cfg.workers * cfg.conns_per_worker);

  // The storm actually hit the supervised path.
  ASSERT_EQ(s.extension_count(), 1u);
  EXPECT_GT(s.stats(0).violations, 0u);
  EXPECT_GT(s.stats(0).invocations, 0u);
}

}  // namespace
}  // namespace usk
