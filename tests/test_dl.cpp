// Tests for kdl: deadline scopes (thread-local stacking, disarmed
// inertness), the syscall-gateway fail-fast, the errno contract across
// every blocking vehicle (expiry -> ETIMEDOUT, cancel -> ECANCELED,
// kill -> EINTR), deadline-bounded parks, ring-chain and Cosy
// between-op aborts with fd rollback, admission feasibility, retry
// budgets (deterministic jitter, exhaustion -> breaker), the kfail
// dl.* sites, /proc/dl, WaitQueue timed waits, and TSan-targeted races
// (timeout vs wake / kill / cancel), a cancellation-storm leak oracle
// over the overload workload, and its serve and shed response paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/current.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "sched/scheduler.hpp"
#include "sched/waitqueue.hpp"
#include "sup/supervisor.hpp"
#include "uk/userlib.hpp"
#include "workload/overload.hpp"

namespace usk::dl {
namespace {

using namespace std::chrono_literals;

class DlTest : public ::testing::Test {
 protected:
  DlTest()
      : kernel_(fs_), net_(kernel_), rdev_(kernel_),
        proc_(kernel_, "dl-test") {
    fs_.set_cost_hook(kernel_.charge_hook());
    kdl().set_enabled(true);
  }

  uk::Process& p() { return proc_.process(); }
  Kdl& kdl() { return kernel_.dl(); }
  /// The gateway's fail-fast verdict for the test task, right now.
  Errno gate() { return kdl().fail_fast(&proc_.task(), Kdl::Site::kGateway); }

  /// Listener + connected pair (nothing blocks: connect queues first).
  struct Trio {
    int lfd = -1, cli = -1, srv = -1;
  };
  Trio make_pair_on(std::uint16_t port) {
    Trio t;
    t.lfd = static_cast<int>(net_.sys_socket(p()));
    EXPECT_GE(t.lfd, 0);
    EXPECT_EQ(net_.sys_bind(p(), t.lfd, port), 0);
    EXPECT_EQ(net_.sys_listen(p(), t.lfd, 8), 0);
    t.cli = static_cast<int>(net_.sys_socket(p()));
    EXPECT_GE(t.cli, 0);
    EXPECT_EQ(net_.sys_connect(p(), t.cli, port), 0);
    t.srv = static_cast<int>(net_.sys_accept(p(), t.lfd));
    EXPECT_GE(t.srv, 0);
    return t;
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  net::Net net_;
  ring::RingDev rdev_;
  uk::Proc proc_;
};

// --- DeadlineScope: stacking, inertness, retirement ---------------------------

TEST_F(DlTest, ScopeIsInertWhenDisabled) {
  kdl().set_enabled(false);
  const std::uint64_t attached0 = kdl().stats().attached.load();
  {
    DeadlineScope s(kdl(), 5ms, &proc_.task(), /*tenant=*/3);
    EXPECT_EQ(base::current().deadline, nullptr);
  }
  EXPECT_EQ(kdl().stats().attached.load(), attached0);
  kdl().set_enabled(true);
}

TEST_F(DlTest, ScopesStackAndInnermostWins) {
  EXPECT_EQ(base::current().deadline, nullptr);
  DeadlineScope outer(kdl(), 10s, &proc_.task(), 1);
  EXPECT_EQ(base::current().deadline, &outer);
  {
    DeadlineScope inner(kdl(), 5s, &proc_.task(), 2);
    EXPECT_EQ(base::current().deadline, &inner);
    EXPECT_EQ(base::current().deadline->tenant(), 2u);
    // The inner (tighter) deadline is the binding one.
    EXPECT_LT(inner.deadline(), outer.deadline());
  }
  EXPECT_EQ(base::current().deadline, &outer);
  EXPECT_GT(outer.remaining_ns(), 0);
  EXPECT_FALSE(outer.expired());
  EXPECT_EQ(kdl().stats().active.load(), 1);
}

TEST_F(DlTest, CancelOutranksExpiryAndScopeRetirementClearsTheFlag) {
  {
    DeadlineScope s(kdl(), std::chrono::nanoseconds(0), &proc_.task());
    EXPECT_TRUE(s.expired());
    // Expired only: ETIMEDOUT.
    EXPECT_EQ(gate(), Errno::kETIMEDOUT);
    // Cancel pending too: the canceler asked for a deterministic
    // ECANCELED, so cancel outranks expiry.
    proc_.task().set_cancel_pending(true);
    EXPECT_EQ(gate(), Errno::kECANCELED);
  }
  // Retiring the ingress scope absorbs the cancel: the flag must not
  // poison the worker's next request.
  EXPECT_FALSE(proc_.task().cancel_pending());
  EXPECT_EQ(gate(), Errno::kOk);
  EXPECT_GE(kdl().stats().retired_canceled.load(), 1u);
}

// --- the syscall gateway -------------------------------------------------------

TEST_F(DlTest, GatewayFailsFastOnExpiryAndCancel) {
  EXPECT_GE(proc_.getpid(), 0);
  {
    DeadlineScope s(kdl(), std::chrono::nanoseconds(0), &proc_.task());
    EXPECT_EQ(proc_.getpid(), sysret_err(Errno::kETIMEDOUT));
    EXPECT_GE(kdl().stats().gateway_expired.load(), 1u);
  }
  {
    DeadlineScope s(kdl(), 10s, &proc_.task());
    proc_.task().set_cancel_pending(true);
    EXPECT_EQ(proc_.getpid(), sysret_err(Errno::kECANCELED));
    EXPECT_GE(kdl().stats().gateway_canceled.load(), 1u);
  }
  // Scope retired, flag cleared: the gateway is clean again.
  EXPECT_GE(proc_.getpid(), 0);
}

// --- errno contract across blocking syscalls (table-driven) -------------------

TEST_F(DlTest, ErrnoContractAcrossBlockingSyscalls) {
  Trio t = make_pair_on(7100);
  int ep = static_cast<int>(net_.sys_epoll_create(p()));
  ASSERT_GE(ep, 0);
  net::EpollEvent ev{};
  int ringfd = static_cast<int>(rdev_.sys_ring_setup(p(), 8, 1024));
  ASSERT_GE(ringfd, 0);
  int file = proc_.open("/contract", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(file, 0);

  char buf[8];
  std::vector<int> extra_fds;  // fds minted by sanity calls, closed at end
  struct Case {
    const char* name;
    std::function<SysRet()> call;
    std::function<void()> prime;  ///< make the call ready (no park) for
                                  ///< the post-retirement sanity check
  };
  const Case cases[] = {
      {"recv", [&] { return net_.sys_recv(p(), t.srv, buf, sizeof buf); },
       [&] { EXPECT_EQ(net_.sys_send(p(), t.cli, "ping", 4), 4); }},
      {"accept", [&] { return net_.sys_accept(p(), t.lfd); },
       [&] {
         int c2 = static_cast<int>(net_.sys_socket(p()));
         ASSERT_GE(c2, 0);
         EXPECT_EQ(net_.sys_connect(p(), c2, 7100), 0);
         extra_fds.push_back(c2);
       }},
      {"epoll_wait", [&] { return net_.sys_epoll_wait(p(), ep, &ev, 1, 0); },
       [] {}},
      {"ring_enter",
       [&] {
         return rdev_.sys_ring_enter(p(), ringfd, ring::RingDev::kDrainAll,
                                     0, 0);
       },
       [] {}},
      {"fsync", [&] { return proc_.fsync(file); }, [] {}},
  };

  for (const Case& c : cases) {
    // Deadline expiry -> ETIMEDOUT, uniformly at the gateway.
    {
      DeadlineScope s(kdl(), std::chrono::nanoseconds(0), &proc_.task());
      EXPECT_EQ(c.call(), sysret_err(Errno::kETIMEDOUT)) << c.name;
    }
    // Cooperative cancel -> ECANCELED, and it outranks expiry.
    {
      DeadlineScope s(kdl(), 10s, &proc_.task());
      proc_.task().set_cancel_pending(true);
      EXPECT_EQ(c.call(), sysret_err(Errno::kECANCELED)) << c.name;
    }
    {
      DeadlineScope s(kdl(), std::chrono::nanoseconds(0), &proc_.task());
      proc_.task().set_cancel_pending(true);
      EXPECT_EQ(c.call(), sysret_err(Errno::kECANCELED)) << c.name;
    }
    // Scope retirement cleared the flag: the syscall works again. The
    // prime step makes it ready first so nothing parks.
    c.prime();
    const SysRet r = c.call();
    EXPECT_GE(r, 0) << c.name;
    if (std::strcmp(c.name, "accept") == 0 && r >= 0) {
      extra_fds.push_back(static_cast<int>(r));
    }
  }

  for (int fd2 : extra_fds) proc_.close(fd2);

  proc_.close(file);
  proc_.close(ringfd);
  proc_.close(ep);
  proc_.close(t.srv);
  proc_.close(t.cli);
  proc_.close(t.lfd);
}

TEST_F(DlTest, KillWhileBlockedReturnsEintrUniformly) {
  Trio t = make_pair_on(7102);
  int ep = static_cast<int>(net_.sys_epoll_create(p()));
  ASSERT_GE(ep, 0);
  net::EpollEvent ev{};
  int ringfd = static_cast<int>(rdev_.sys_ring_setup(p(), 8, 1024));
  ASSERT_GE(ringfd, 0);

  // A killed task never sleeps: the park predicate observes kKilled
  // before the wait and every blocking vehicle surfaces EINTR -- the
  // third leg of the errno contract (expiry/cancel/kill).
  char buf[8];
  proc_.task().set_state(sched::TaskState::kKilled);
  EXPECT_EQ(net_.sys_recv(p(), t.srv, buf, sizeof buf),
            sysret_err(Errno::kEINTR));
  EXPECT_EQ(net_.sys_accept(p(), t.lfd), sysret_err(Errno::kEINTR));
  EXPECT_EQ(net_.sys_epoll_wait(p(), ep, &ev, 1, -1),
            sysret_err(Errno::kEINTR));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), ringfd, 0, 1, -1),
            sysret_err(Errno::kEINTR));
  proc_.task().set_state(sched::TaskState::kRunning);

  proc_.close(ringfd);
  proc_.close(ep);
  proc_.close(t.srv);
  proc_.close(t.cli);
  proc_.close(t.lfd);
}

// --- deadline-bounded parks ----------------------------------------------------

TEST_F(DlTest, BlockedRecvHonorsDeadlineWithEtimedout) {
  Trio t = make_pair_on(7101);
  const std::uint64_t parked0 = kdl().stats().park_expired.load();
  char buf[8];
  DeadlineScope s(kdl(), 10ms, &proc_.task());
  const auto t0 = Clock::now();
  EXPECT_EQ(net_.sys_recv(p(), t.srv, buf, sizeof buf),
            sysret_err(Errno::kETIMEDOUT));
  // Woke at the deadline, not after some unrelated poll interval.
  EXPECT_LT(Clock::now() - t0, 2s);
  EXPECT_GT(kdl().stats().park_expired.load(), parked0);
  proc_.close(t.srv);
  proc_.close(t.cli);
  proc_.close(t.lfd);
}

TEST_F(DlTest, BlockedEpollAndRingHonorDeadline) {
  const std::atomic<std::uint64_t>& expired = kdl().stats().park_expired;
  int ep = static_cast<int>(net_.sys_epoll_create(p()));
  ASSERT_GE(ep, 0);
  net::EpollEvent ev{};
  {
    // User asked to wait forever; the request deadline bounds it anyway.
    const std::uint64_t expired0 = expired.load();
    DeadlineScope s(kdl(), 10ms, &proc_.task());
    EXPECT_EQ(net_.sys_epoll_wait(p(), ep, &ev, 1, -1),
              sysret_err(Errno::kETIMEDOUT));
    EXPECT_EQ(expired.load(), expired0 + 1);
  }
  {
    // A user timeout tighter than the deadline keeps its own semantics:
    // epoll_wait returns 0, not ETIMEDOUT, and no park expired.
    const std::uint64_t expired0 = expired.load();
    DeadlineScope s(kdl(), 10s, &proc_.task());
    EXPECT_EQ(net_.sys_epoll_wait(p(), ep, &ev, 1, 5), 0);
    EXPECT_EQ(expired.load(), expired0);
  }
  int ringfd = static_cast<int>(rdev_.sys_ring_setup(p(), 8, 1024));
  ASSERT_GE(ringfd, 0);
  {
    const std::uint64_t expired0 = expired.load();
    DeadlineScope s(kdl(), 10ms, &proc_.task());
    EXPECT_EQ(rdev_.sys_ring_enter(p(), ringfd, 0, 1, -1),
              sysret_err(Errno::kETIMEDOUT));
    EXPECT_EQ(expired.load(), expired0 + 1);
  }
  proc_.close(ringfd);
  proc_.close(ep);
}

TEST_F(DlTest, CancelWhileParkedReturnsEcanceledUniformly) {
  Trio t = make_pair_on(7103);
  int ep = static_cast<int>(net_.sys_epoll_create(p()));
  ASSERT_GE(ep, 0);
  net::EpollEvent ev{};
  int ringfd = static_cast<int>(rdev_.sys_ring_setup(p(), 8, 1024));
  ASSERT_GE(ringfd, 0);

  // Another thread cancels the task once it is parked: the park ends
  // with ECANCELED and ticks park_canceled once, whichever vehicle.
  char buf[8];
  const std::pair<const char*, std::function<SysRet()>> cases[] = {
      {"recv", [&] { return net_.sys_recv(p(), t.srv, buf, sizeof buf); }},
      {"epoll_wait",
       [&] { return net_.sys_epoll_wait(p(), ep, &ev, 1, -1); }},
      {"ring_enter",
       [&] { return rdev_.sys_ring_enter(p(), ringfd, 0, 1, -1); }},
  };
  for (const auto& [name, call] : cases) {
    const std::uint64_t canceled0 = kdl().stats().park_canceled.load();
    std::atomic<bool> returned{false};
    std::thread canceller([&] {
      while (proc_.task().parked_on() == nullptr) {
        if (returned.load()) return;
        std::this_thread::yield();
      }
      kernel_.scheduler().cancel(proc_.task());
    });
    EXPECT_EQ(call(), sysret_err(Errno::kECANCELED)) << name;
    returned = true;
    canceller.join();
    EXPECT_EQ(kdl().stats().park_canceled.load(), canceled0 + 1) << name;
    // No DeadlineScope retires to absorb the cancel: clear it by hand.
    proc_.task().set_cancel_pending(false);
  }

  proc_.close(ringfd);
  proc_.close(ep);
  proc_.close(t.srv);
  proc_.close(t.cli);
  proc_.close(t.lfd);
}

// --- ring chains + Cosy compounds: abort with rollback ------------------------

TEST_F(DlTest, RingChainDeadlineAbortRollsBackOpenedFd) {
  int warm = proc_.open("/chain", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(warm, 0);
  proc_.close(warm);

  int ringfd = static_cast<int>(rdev_.sys_ring_setup(p(), 8, 512));
  ASSERT_GE(ringfd, 0);
  auto rg = rdev_.user_map(p(), ringfd);
  ASSERT_TRUE(rg.ok());
  ring::Ring& r = *rg.value();
  const char path[] = "/chain";
  std::byte* d = r.user_data(0, sizeof path);
  ASSERT_NE(d, nullptr);
  std::memcpy(d, path, sizeof path);

  ring::Sqe o{};
  o.user_data = 1;
  o.nr = uk::Sys::kOpen;
  o.flags = ring::kSqeLink;
  o.args = {0, fs::kORdOnly, 0644};
  ASSERT_TRUE(r.user_prepare(o));
  ring::Sqe rd{};
  rd.user_data = 2;
  rd.nr = uk::Sys::kRead;
  rd.flags = ring::kSqeLink;
  rd.args = {ring::kFdChain, 256, 16};
  ASSERT_TRUE(r.user_prepare(rd));
  ring::Sqe cl{};
  cl.user_data = 3;
  cl.nr = uk::Sys::kClose;
  cl.args = {ring::kFdChain};
  ASSERT_TRUE(r.user_prepare(cl));

  const std::size_t fds0 = p().fds.open_count();
  const std::uint64_t aborts0 = kdl().stats().ring_aborts.load();

  // Deadline expires BETWEEN SQEs: check #1 is the syscall gateway,
  // check #2 admits the open, check #3 (before the read) reads a skewed
  // clock that is already past the deadline. The abort must ride the
  // existing cancel cascade: read -> ETIMEDOUT, close -> ECANCELED, and
  // the open's fd is rolled back.
  DeadlineScope s(kdl(), 10s, &proc_.task());
  fault::SiteConfig skew;
  skew.nth = 3;
  skew.budget = 1;
  kernel_.kfail().arm(fault::Site::kDlClockSkew, skew);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), ringfd, ring::RingDev::kDrainAll, 0, 0),
            3);
  kernel_.kfail().disarm_all();

  ring::Cqe cq[8];
  const std::size_t n = r.user_reap(cq, 8);
  ASSERT_EQ(n, 3u);
  SysRet read_res = 0, close_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cq[i].user_data == 2) read_res = cq[i].res;
    if (cq[i].user_data == 3) close_res = cq[i].res;
  }
  EXPECT_EQ(read_res, sysret_err(Errno::kETIMEDOUT));
  EXPECT_EQ(close_res, sysret_err(Errno::kECANCELED));
  EXPECT_EQ(p().fds.open_count(), fds0);  // the open was rolled back
  EXPECT_GT(kdl().stats().ring_aborts.load(), aborts0);

  proc_.close(ringfd);
}

TEST_F(DlTest, CosyCompoundAbortsBetweenOpsWithoutLeaking) {
  cosy::CosyExtension ext(kernel_);
  cosy::SharedBuffer shared(1 << 12);
  cosy::CompoundBuilder b;
  int open_op = b.open(b.str("/cosy-dl"), cosy::imm(fs::kOWrOnly | fs::kOCreat),
                       cosy::imm(0644));
  b.write(cosy::result_of(open_op), cosy::shared(0), cosy::imm(8));
  b.getpid();
  b.close(cosy::result_of(open_op));
  cosy::Compound c = b.finish();
  const std::size_t fds0 = p().fds.open_count();

  // Cancel pending at entry: the compound's own syscall gateway fails
  // fast before any op runs.
  const std::uint64_t gwc0 = kdl().stats().gateway_canceled.load();
  {
    DeadlineScope s(kdl(), 10s, &proc_.task());
    proc_.task().set_cancel_pending(true);
    cosy::CosyResult res = ext.execute(p(), c, shared);
    EXPECT_EQ(res.ret, sysret_err(Errno::kECANCELED));
    EXPECT_EQ(p().fds.open_count(), fds0);
  }
  EXPECT_FALSE(proc_.task().cancel_pending());
  EXPECT_GT(kdl().stats().gateway_canceled.load(), gwc0);

  // Deadline expiry mid-compound (skewed clock at check #2, after the
  // open ran): the abort reuses the fault path's fd rollback.
  {
    DeadlineScope s(kdl(), 10s, &proc_.task());
    fault::SiteConfig skew;
    skew.nth = 2;
    skew.budget = 1;
    kernel_.kfail().arm(fault::Site::kDlClockSkew, skew);
    cosy::CosyResult res = ext.execute(p(), c, shared);
    kernel_.kfail().disarm_all();
    EXPECT_EQ(res.ret, sysret_err(Errno::kETIMEDOUT));
    EXPECT_EQ(p().fds.open_count(), fds0);
  }
  EXPECT_GE(kdl().stats().cosy_aborts.load(), 1u);

  // Clean replay completes.
  cosy::CosyResult ok = ext.execute(p(), c, shared);
  EXPECT_EQ(ok.ret, 0);
  EXPECT_EQ(p().fds.open_count(), fds0);
}

// --- admission -----------------------------------------------------------------

TEST_F(DlTest, AdmissionColdStartAdmitsAndInflightBounds) {
  AdmissionConfig cfg;
  cfg.max_inflight = 2;
  Admission adm(kdl(), cfg);
  // Cold histogram: the estimate floors at 1 us, so feasible
  // requests are admitted rather than shed on zero data.
  EXPECT_TRUE(adm.try_admit(1'000'000'000));
  EXPECT_TRUE(adm.try_admit(1'000'000'000));
  EXPECT_EQ(adm.inflight(), 2u);
  // The hard inflight bound sheds regardless of budget.
  EXPECT_FALSE(adm.try_admit(1'000'000'000));
  adm.depart(1'000'000);
  adm.depart(1'000'000);
  EXPECT_EQ(adm.inflight(), 0u);
  EXPECT_GE(kdl().stats().admits.load(), 2u);
  EXPECT_GE(kdl().stats().sheds.load(), 1u);
}

TEST_F(DlTest, AdmissionShedsInfeasibleBudgets) {
  Admission adm(kdl());
  // Feed the service histogram ~2ms departs until the cached estimate
  // refreshes (every 32 departs).
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(adm.try_admit(1'000'000'000));
    adm.depart(2'000'000);
  }
  const std::uint64_t est = adm.service_estimate_ns();
  EXPECT_GE(est, 1'000'000u);   // ~2ms, log2-bucket coarse
  EXPECT_LE(est, 10'000'000u);
  // A budget smaller than one service time is infeasible; a budget an
  // order of magnitude above it is admitted.
  EXPECT_FALSE(adm.try_admit(static_cast<std::int64_t>(est) / 2));
  EXPECT_FALSE(adm.try_admit(0));
  EXPECT_FALSE(adm.try_admit(-5));
  EXPECT_TRUE(adm.try_admit(static_cast<std::int64_t>(est) * 10));
  adm.depart(2'000'000);
}

// --- retry budgets -------------------------------------------------------------

TEST_F(DlTest, RetryBudgetDeterministicJitterAndExhaustion) {
  RetryBudgetConfig cfg;
  cfg.budget = 3;
  cfg.base_backoff_ns = 1'000'000;
  cfg.multiplier = 2.0;
  cfg.max_backoff_ns = 100'000'000;
  cfg.seed = 99;
  RetryBudget a(kdl(), "tenant.a", cfg);
  RetryBudget b(kdl(), "tenant.b", cfg);

  std::vector<std::uint64_t> seq_a, seq_b;
  for (int i = 0; i < 3; ++i) {
    RetryBudget::Decision da = a.on_reject();
    RetryBudget::Decision db = b.on_reject();
    EXPECT_TRUE(da.retry);
    EXPECT_TRUE(db.retry);
    seq_a.push_back(da.backoff_ns);
    seq_b.push_back(db.backoff_ns);
    // Jitter stays within [cap/2, cap] for cap = base * mult^i.
    const auto cap = static_cast<std::uint64_t>(
        static_cast<double>(cfg.base_backoff_ns) * std::pow(2.0, i));
    EXPECT_GE(da.backoff_ns, cap / 2) << i;
    EXPECT_LE(da.backoff_ns, cap) << i;
  }
  // Same seed, same stream: deterministic across instances.
  EXPECT_EQ(seq_a, seq_b);

  // Budget spent: the 4th consecutive reject exhausts.
  RetryBudget::Decision d = a.on_reject();
  EXPECT_FALSE(d.retry);
  EXPECT_EQ(a.exhausted(), 1u);

  // Success resets the streak; the budget is whole again.
  a.on_success();
  EXPECT_EQ(a.streak(), 0u);
  EXPECT_TRUE(a.on_reject().retry);
}

TEST_F(DlTest, ExhaustedBudgetTripsTheTenantBreaker) {
  sup::Supervisor s(kernel_);
  sup::BreakerPolicy pol;
  pol.violation_threshold = 2;
  pol.window_invocations = 16;
  pol.probation_clean_runs = 2;
  pol.backoff_initial = 2;
  pol.backoff_multiplier = 2;
  pol.backoff_cap = 8;
  s.set_policy(pol);
  sup::ExtId id = s.register_extension("tenant.hot", sup::Vehicle::kMonitor);

  s.record_violation(id, sup::ViolationKind::kRetryBudget, Errno::kETIMEDOUT);
  EXPECT_EQ(s.health(id), sup::Health::kProbation);
  s.record_violation(id, sup::ViolationKind::kRetryBudget, Errno::kETIMEDOUT);
  EXPECT_EQ(s.health(id), sup::Health::kQuarantined);
  EXPECT_EQ(s.stats(id).violations, 2u);
}

// --- kfail dl.* sites ----------------------------------------------------------

TEST_F(DlTest, ClockSkewSiteInjectsSpuriousExpiry) {
  DeadlineScope s(kdl(), 10s, &proc_.task());
  const std::uint64_t skews0 =
      kdl().stats().clock_skew_injected.load();
  fault::SiteConfig cfg;
  cfg.p = 1.0;
  cfg.budget = 1;
  kernel_.kfail().arm(fault::Site::kDlClockSkew, cfg);
  // The skewed read lands past the deadline: spurious expiry, and the
  // gateway surfaces it as a normal ETIMEDOUT.
  EXPECT_LT(s.remaining_ns(), 0);
  kernel_.kfail().disarm_all();
  EXPECT_EQ(kdl().stats().clock_skew_injected.load(), skews0 + 1);
  // Budget spent: the next read is sane again.
  EXPECT_GT(s.remaining_ns(), 0);
  EXPECT_EQ(gate(), Errno::kOk);
}

TEST_F(DlTest, SpuriousWakeSiteForcesRecheckWithoutHanging) {
  const std::uint64_t wakes0 = kdl().stats().spurious_wakes.load();
  int ep = static_cast<int>(net_.sys_epoll_create(p()));
  ASSERT_GE(ep, 0);
  net::EpollEvent ev{};
  fault::SiteConfig cfg;
  cfg.nth = 1;
  cfg.budget = 1;
  kernel_.kfail().arm(fault::Site::kDlSpuriousWake, cfg);
  // The park loop absorbs the spurious wake by re-checking its wait
  // condition; the user timeout still lands (returns 0, no hang).
  EXPECT_EQ(net_.sys_epoll_wait(p(), ep, &ev, 1, 5), 0);
  kernel_.kfail().disarm_all();
  EXPECT_GT(kdl().stats().spurious_wakes.load(), wakes0);
  proc_.close(ep);
}

// --- /proc/dl ------------------------------------------------------------------

TEST_F(DlTest, ProcDlFilesToggleRenderAndReset) {
  kernel_.mount_procfs();
  auto cat = [&](const char* path) {
    std::string out;
    int fd = proc_.open(path, fs::kORdOnly);
    if (fd < 0) return out;
    char buf[4096];
    SysRet n;
    while ((n = proc_.read(fd, buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    proc_.close(fd);
    return out;
  };

  EXPECT_EQ(cat("/proc/dl/enable"), "1\n");
  int fd = proc_.open("/proc/dl/enable", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.write(fd, "0\n", 2), 2);
  proc_.close(fd);
  EXPECT_FALSE(kdl().enabled());
  fd = proc_.open("/proc/dl/enable", fs::kOWrOnly);
  EXPECT_EQ(proc_.write(fd, "1\n", 2), 2);
  proc_.close(fd);
  EXPECT_TRUE(kdl().enabled());

  // Generate some traffic so the stats body has live numbers.
  {
    DeadlineScope s(kdl(), std::chrono::nanoseconds(0), &proc_.task());
    (void)proc_.getpid();
  }
  RetryBudget tb(kdl(), "tenant.proc", {});
  (void)tb.on_reject();
  const std::string stats = cat("/proc/dl/stats");
  EXPECT_NE(stats.find("attached"), std::string::npos);
  EXPECT_NE(stats.find("gateway_expired"), std::string::npos);
  const std::string tenants = cat("/proc/dl/tenants");
  EXPECT_NE(tenants.find("tenant.proc"), std::string::npos);

  // Writing /proc/dl/stats resets the counters.
  fd = proc_.open("/proc/dl/stats", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.write(fd, "0\n", 2), 2);
  proc_.close(fd);
  EXPECT_EQ(kdl().stats().attached.load(), 0u);

  const std::string metrics = cat("/proc/metrics");
  EXPECT_NE(metrics.find("usk_dl_active"), std::string::npos);
  EXPECT_NE(metrics.find("usk_dl_sheds"), std::string::npos);
}

// --- WaitQueue timed waits -----------------------------------------------------

TEST(DlWaitQueue, TimedWaitTimesOutAndCountsIt) {
  sched::WaitQueue wq;
  const std::uint64_t to0 = sched::waitqueue_stats().timeouts.load();
  // A deadline already in the past: immediate timeout, no sleep.
  sched::WaitQueue::Token tok = wq.prepare();
  sched::WaitQueue::Deadline past =
      std::chrono::steady_clock::now() - 1ms;
  EXPECT_EQ(wq.wait(tok, nullptr, &past), sched::WaitQueue::Wait::kTimeout);
  // A short future deadline with no waker: times out near the deadline.
  tok = wq.prepare();
  sched::WaitQueue::Deadline soon =
      std::chrono::steady_clock::now() + 5ms;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(wq.wait(tok, nullptr, &soon), sched::WaitQueue::Wait::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 4ms);
  EXPECT_GE(sched::waitqueue_stats().timeouts.load(), to0 + 2);
  // A wake posted after prepare() makes the token stale: no timeout.
  tok = wq.prepare();
  wq.wake_all();
  sched::WaitQueue::Deadline far =
      std::chrono::steady_clock::now() + 10s;
  EXPECT_EQ(wq.wait(tok, nullptr, &far), sched::WaitQueue::Wait::kWoken);
}

// --- TSan-targeted races (the Smp tier runs exactly these) --------------------

TEST(DlSmp, SmpTimeoutVsWakeRaceNeverHangs) {
  constexpr int kRounds = 200;
  sched::Scheduler s;
  for (int i = 0; i < kRounds; ++i) {
    sched::Task& t = s.spawn("tw" + std::to_string(i));
    sched::WaitQueue wq;
    std::atomic<int> result{-1};
    std::thread sleeper([&] {
      s.enter(t);
      sched::WaitQueue::Token tok = wq.prepare();
      sched::WaitQueue::Deadline d =
          std::chrono::steady_clock::now() + std::chrono::microseconds(i % 7);
      result.store(static_cast<int>(s.block(wq, tok, &d)));
    });
    std::thread waker([&] { wq.wake_all(); });
    sleeper.join();
    waker.join();
    const auto w = static_cast<sched::WaitQueue::Wait>(result.load());
    EXPECT_TRUE(w == sched::WaitQueue::Wait::kWoken ||
                w == sched::WaitQueue::Wait::kTimeout);
  }
}

TEST(DlSmp, SmpTimeoutVsKillRaceAlwaysUnparks) {
  constexpr int kRounds = 200;
  sched::Scheduler s;
  for (int i = 0; i < kRounds; ++i) {
    sched::Task& t = s.spawn("tk" + std::to_string(i));
    sched::WaitQueue wq;
    std::atomic<int> result{-1};
    std::thread sleeper([&] {
      s.enter(t);
      sched::WaitQueue::Token tok = wq.prepare();
      sched::WaitQueue::Deadline d =
          std::chrono::steady_clock::now() + std::chrono::microseconds(i % 11);
      result.store(static_cast<int>(s.block(wq, tok, &d)));
    });
    std::thread killer([&] { s.kill(t); });
    sleeper.join();
    killer.join();
    const auto w = static_cast<sched::WaitQueue::Wait>(result.load());
    EXPECT_TRUE(w == sched::WaitQueue::Wait::kKilled ||
                w == sched::WaitQueue::Wait::kTimeout);
    EXPECT_EQ(t.state(), sched::TaskState::kKilled);
  }
}

TEST(DlSmp, SmpTimeoutVsCancelRaceAlwaysUnparks) {
  constexpr int kRounds = 200;
  sched::Scheduler s;
  for (int i = 0; i < kRounds; ++i) {
    sched::Task& t = s.spawn("tc" + std::to_string(i));
    sched::WaitQueue wq;
    std::atomic<int> result{-1};
    std::thread sleeper([&] {
      s.enter(t);
      sched::WaitQueue::Token tok = wq.prepare();
      sched::WaitQueue::Deadline d =
          std::chrono::steady_clock::now() + std::chrono::microseconds(i % 11);
      result.store(static_cast<int>(s.block(wq, tok, &d)));
    });
    std::thread canceller([&] { s.cancel(t); });
    sleeper.join();
    canceller.join();
    const auto w = static_cast<sched::WaitQueue::Wait>(result.load());
    EXPECT_TRUE(w == sched::WaitQueue::Wait::kCanceled ||
                w == sched::WaitQueue::Wait::kTimeout);
    // Either way the flag is set (cancel ran); a real worker's ingress
    // scope retirement clears it.
    EXPECT_TRUE(t.cancel_pending());
  }
}

// --- cancellation storm leak oracle --------------------------------------------

TEST_F(DlTest, CancelStormLeaksNothing) {
  workload::OverloadConfig cfg;
  cfg.workers = 2;
  cfg.client_threads = 8;
  cfg.tenants = 2;
  cfg.requests = 500;
  cfg.offered_rps = 1500.0;
  cfg.file_bytes = 4096;
  cfg.files = 2;
  cfg.deadline_ms = 30;
  cfg.base_port = 9300;
  cfg.seed = 7;
  cfg.cancel_period_us = 150;
  workload::OverloadReport rep = workload::run_overload(kernel_, net_, cfg);

  EXPECT_GE(rep.cancels_issued, 1000u);
  EXPECT_EQ(rep.leaked_fds, 0u);
  EXPECT_EQ(rep.leaked_sockets, 0u);
  // Every scheduled arrival is accounted for: served, dropped, or
  // failed/shed on its final attempt.
  EXPECT_GE(rep.ok_in_deadline + rep.ok_late + rep.dropped + rep.failed +
                rep.shed,
            rep.offered);
}

// --- the overload server's two response paths ---------------------------------

/// A light open-loop episode: few arrivals, well under capacity.
workload::OverloadConfig light_overload(std::uint16_t base_port) {
  workload::OverloadConfig cfg;
  cfg.workers = 2;
  cfg.client_threads = 4;
  cfg.tenants = 2;
  cfg.requests = 60;
  cfg.offered_rps = 600.0;
  cfg.file_bytes = 4096;
  cfg.files = 2;
  cfg.base_port = base_port;
  return cfg;
}

TEST_F(DlTest, OverloadServesEveryRequestWithKdlOff) {
  kdl().set_enabled(false);
  workload::OverloadConfig cfg = light_overload(9320);
  cfg.deadline_ms = 60'000;
  const workload::OverloadReport rep =
      workload::run_overload(kernel_, net_, cfg);
  EXPECT_EQ(rep.ok_in_deadline + rep.ok_late, rep.offered);
  EXPECT_EQ(rep.server_sheds, 0u);
  EXPECT_EQ(rep.leaked_fds, 0u);
  EXPECT_EQ(rep.leaked_sockets, 0u);
}

// Admission sheds any request whose residual budget is <= 0, and a zero
// budget is spent on arrival: every request is answered kShed, once.
TEST_F(DlTest, OverloadShedsEveryRequestWithAZeroDeadline) {
  workload::OverloadConfig cfg = light_overload(9330);
  cfg.deadline_ms = 0;
  const workload::OverloadReport rep =
      workload::run_overload(kernel_, net_, cfg);
  EXPECT_EQ(rep.admitted, 0u);
  EXPECT_EQ(rep.server_sheds, rep.offered);
  EXPECT_EQ(rep.shed, rep.offered);
  EXPECT_EQ(rep.dropped, rep.offered);
  EXPECT_EQ(rep.ok_in_deadline + rep.ok_late, 0u);
  EXPECT_EQ(rep.leaked_fds, 0u);
  EXPECT_EQ(rep.leaked_sockets, 0u);
}

}  // namespace
}  // namespace usk::dl
