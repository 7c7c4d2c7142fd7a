// Unit and property tests for the base substrate: errno/Result, klog,
// the deterministic RNG, the splay tree, and the sync primitives with
// their instrumentation hooks.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "base/errno.hpp"
#include "base/klog.hpp"
#include "base/rng.hpp"
#include "base/splay_tree.hpp"
#include "base/sync.hpp"
#include "base/work.hpp"

namespace usk {
namespace {

// --- Result / Errno -----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.error(), Errno::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Errno::kENOENT;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kENOENT);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(SysRetTest, ErrnoRoundTrip) {
  SysRet r = sysret_err(Errno::kEBADF);
  EXPECT_TRUE(sysret_is_err(r));
  EXPECT_EQ(sysret_errno(r), Errno::kEBADF);
  EXPECT_FALSE(sysret_is_err(0));
  EXPECT_FALSE(sysret_is_err(123));
}

TEST(ErrnoTest, NamesAreStable) {
  EXPECT_EQ(errno_name(Errno::kENOENT), "ENOENT");
  EXPECT_EQ(errno_name(Errno::kEKILLED), "EKILLED");
  EXPECT_EQ(errno_name(Errno::kOk), "OK");
}

// --- KLog ------------------------------------------------------------------------------

TEST(KLogTest, RecordsAndFilters) {
  base::KLog log(16);
  log.log(base::LogLevel::kInfo, "hello");
  log.log(base::LogLevel::kErr, "bad thing");
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries_at_least(base::LogLevel::kErr).size(), 1u);
  EXPECT_TRUE(log.contains("bad"));
  EXPECT_FALSE(log.contains("absent"));
}

TEST(KLogTest, BoundedCapacityDropsOldest) {
  base::KLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.log(base::LogLevel::kInfo, "msg" + std::to_string(i));
  }
  auto entries = log.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().message, "msg6");
  EXPECT_EQ(log.total_logged(), 10u);
}

TEST(KLogTest, FormattedLogging) {
  base::klog().clear();
  base::klogf(base::LogLevel::kWarn, "value=%d name=%s", 7, "x");
  EXPECT_TRUE(base::klog().contains("value=7 name=x"));
}

TEST(KLogTest, RuntimeMinLevelSuppressesAndCounts) {
  base::KLog log(16);
  log.set_min_level(base::LogLevel::kWarn);
  log.log(base::LogLevel::kDebug, "noise");
  log.log(base::LogLevel::kInfo, "chatter");
  log.log(base::LogLevel::kErr, "kept");
  EXPECT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.suppressed(), 2u);
  EXPECT_FALSE(log.contains("noise"));
  EXPECT_TRUE(log.contains("kept"));
  // Lowering the floor re-admits low-severity messages.
  log.set_min_level(base::LogLevel::kDebug);
  log.log(base::LogLevel::kDebug, "now visible");
  EXPECT_TRUE(log.contains("now visible"));
}

TEST(KLogTest, CompileOutMacroLogsAtOrAboveThreshold) {
  // Default build keeps every level (USK_KLOG_MIN_LEVEL == 0): both
  // sites must reach the log. A build with -DUSK_KLOG_MIN_LEVEL=2 would
  // compile the kDebug site out entirely.
  base::klog().clear();
  base::klog().set_min_level(base::LogLevel::kDebug);
  USK_KLOG(base::LogLevel::kDebug, "macro-debug %d", 1);
  USK_KLOG(base::LogLevel::kCrit, "macro-crit %d", 2);
  EXPECT_EQ(base::klog().contains("macro-debug 1"), USK_KLOG_MIN_LEVEL <= 0);
  EXPECT_TRUE(base::klog().contains("macro-crit 2"));
}

TEST(RateLimitTest, AllowsBurstThenSuppresses) {
  base::RateLimit rl(3, 1'000'000'000ull);  // 3 per second
  int allowed = 0;
  for (int i = 0; i < 10; ++i) {
    if (rl.allow()) ++allowed;
  }
  EXPECT_EQ(allowed, 3);
  EXPECT_EQ(rl.suppressed(), 7u);
}

TEST(RateLimitTest, WindowRolloverReportsSuppressed) {
  // 1ns window: every call starts a new window, so the suppressions of
  // the previous window become visible through take_report().
  base::RateLimit rl(1, 1ull);
  ASSERT_TRUE(rl.allow());
  // Exhaust + suppress within one (already expired) window is racy with
  // real clocks, so drive it with a zero-burst limiter instead.
  base::RateLimit never(0, 1ull);
  EXPECT_FALSE(never.allow());
  EXPECT_FALSE(never.allow());
  EXPECT_GE(never.suppressed(), 2u);
  EXPECT_GE(never.take_report(), 1u);  // prior windows' count surfaced
  // Reports are consumed once.
  base::RateLimit rl2(1, 3'600'000'000'000ull);  // 1-hour window
  ASSERT_TRUE(rl2.allow());
  EXPECT_FALSE(rl2.allow());
  EXPECT_EQ(rl2.take_report(), 0u) << "window not finished: nothing to report";
  EXPECT_EQ(rl2.suppressed(), 1u);
}

TEST(RateLimitTest, SitesHaveIndependentBudgets) {
  // A 1-hour window so nothing rolls over mid-test.
  constexpr std::uint64_t kHour = 3'600'000'000'000ull;
  base::RateLimitRegistry reg;
  base::RateLimit& noisy = reg.site("test.noisy", 1, kHour);
  base::RateLimit& quiet = reg.site("test.quiet", 1, kHour);

  ASSERT_TRUE(noisy.allow());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(noisy.allow());
  // One site flooding must never consume another site's budget or
  // pollute its suppression count.
  EXPECT_TRUE(quiet.allow());
  EXPECT_EQ(quiet.suppressed(), 0u);
  EXPECT_EQ(noisy.suppressed(), 100u);

  // Same name -> same limiter; the first configuration wins.
  EXPECT_EQ(&reg.site("test.noisy", 99, 1ull), &noisy);

  // report() exposes per-site totals, sorted by name.
  auto rep = reg.report();
  ASSERT_EQ(rep.size(), 2u);
  EXPECT_EQ(rep[0].name, "test.noisy");
  EXPECT_EQ(rep[0].suppressed, 100u);
  EXPECT_EQ(rep[1].name, "test.quiet");
  EXPECT_EQ(rep[1].suppressed, 0u);
}

TEST(RateLimitTest, RateLimitedKlogMacroSuppressesDuplicates) {
  base::klog().clear();
  base::klog().set_min_level(base::LogLevel::kDebug);
  for (int i = 0; i < 50; ++i) {
    USK_KLOG_RATELIMIT(base::LogLevel::kWarn, 5u, "flood %d", i);
  }
  // Exactly the burst survives (one static site, one 1s window).
  EXPECT_EQ(base::klog().entries().size(), 5u);
  EXPECT_TRUE(base::klog().contains("flood 0"));
  EXPECT_FALSE(base::klog().contains("flood 49"));
}

// --- Rng ------------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  base::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  base::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, RangeIsInclusive) {
  base::Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = r.range(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformIsInUnitInterval) {
  base::Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- SplayTree ---------------------------------------------------------------------------

TEST(SplayTreeTest, InsertFindErase) {
  base::SplayTree<int> t;
  t.insert(10, 100);
  t.insert(20, 200);
  t.insert(5, 50);
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(10), nullptr);
  EXPECT_EQ(*t.find(10), 100);
  EXPECT_EQ(t.find(11), nullptr);
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.erase(10));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(10), nullptr);
}

TEST(SplayTreeTest, InsertOverwrites) {
  base::SplayTree<int> t;
  t.insert(1, 10);
  t.insert(1, 20);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(1), 20);
}

TEST(SplayTreeTest, FloorSemantics) {
  base::SplayTree<int> t;
  t.insert(10, 1);
  t.insert(30, 3);
  t.insert(20, 2);
  EXPECT_EQ(t.floor(5).second, nullptr);
  EXPECT_EQ(*t.floor(10).second, 1);
  EXPECT_EQ(*t.floor(15).second, 1);
  EXPECT_EQ(*t.floor(25).second, 2);
  EXPECT_EQ(*t.floor(1000).second, 3);
  EXPECT_EQ(t.floor(25).first, 20u);
}

TEST(SplayTreeTest, RecentlyAccessedIsNearRoot) {
  base::SplayTree<int> t;
  for (int i = 0; i < 1000; ++i) t.insert(static_cast<std::uint64_t>(i), i);
  (void)t.find(500);
  EXPECT_EQ(t.depth_of(500), 0);  // splayed to root
}

// Property test: the splay tree agrees with std::map across a random
// workload of inserts, erases, finds, and floors.
TEST(SplayTreeProperty, MatchesStdMapUnderRandomOps) {
  base::SplayTree<int> t;
  std::map<std::uint64_t, int> ref;
  base::Rng rng(77);
  for (int step = 0; step < 20000; ++step) {
    std::uint64_t key = rng.below(500);
    switch (rng.below(4)) {
      case 0: {
        int v = static_cast<int>(rng.below(1000));
        t.insert(key, v);
        ref[key] = v;
        break;
      }
      case 1: {
        bool a = t.erase(key);
        bool b = ref.erase(key) > 0;
        ASSERT_EQ(a, b) << "erase mismatch at step " << step;
        break;
      }
      case 2: {
        int* v = t.find(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          ASSERT_EQ(v, nullptr) << "find mismatch at step " << step;
        } else {
          ASSERT_NE(v, nullptr);
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 3: {
        auto [k, v] = t.floor(key);
        auto it = ref.upper_bound(key);
        if (it == ref.begin()) {
          ASSERT_EQ(v, nullptr) << "floor mismatch at step " << step;
        } else {
          --it;
          ASSERT_NE(v, nullptr);
          ASSERT_EQ(k, it->first);
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
}

TEST(SplayTreeTest, InOrderTraversalIsSorted) {
  base::SplayTree<int> t;
  base::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    t.insert(rng.below(10000), i);
  }
  std::vector<std::uint64_t> keys;
  t.for_each([&](std::uint64_t k, const int&) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), t.size());
}

// --- sync primitives -----------------------------------------------------------------------

TEST(SpinLockTest, MutualExclusion) {
  base::SpinLock lock("test");
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000u);
  EXPECT_EQ(lock.acquisitions(), 40000u);
}

TEST(SpinLockTest, TryLock) {
  base::SpinLock lock("try");
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinLockTest, TwoGuardsInOneScope) {
  base::SpinLock outer("outer");
  base::SpinLock inner("inner");
  {
    USK_SPIN_GUARD(outer);
    USK_SPIN_GUARD(inner);
    EXPECT_FALSE(outer.try_lock());
    EXPECT_FALSE(inner.try_lock());
  }
  // Both guards released at scope exit.
  EXPECT_TRUE(outer.try_lock());
  EXPECT_TRUE(inner.try_lock());
  outer.unlock();
  inner.unlock();
  EXPECT_EQ(outer.acquisitions(), 2u);
  EXPECT_EQ(inner.acquisitions(), 2u);
}

struct HookCapture {
  std::vector<std::pair<void*, base::SyncEvent>> events;
  static void fn(void* ctx, void* obj, base::SyncEvent ev, const char*,
                 int) {
    static_cast<HookCapture*>(ctx)->events.emplace_back(obj, ev);
  }
};

TEST(SyncHooksTest, SpinLockFiresHook) {
  HookCapture cap;
  base::SyncHooks::set(&HookCapture::fn, &cap);
  base::SpinLock lock("hooked");
  USK_LOCK(lock);
  USK_UNLOCK(lock);
  base::SyncHooks::reset();
  ASSERT_EQ(cap.events.size(), 2u);
  EXPECT_EQ(cap.events[0].second, base::SyncEvent::kSpinLock);
  EXPECT_EQ(cap.events[1].second, base::SyncEvent::kSpinUnlock);
  EXPECT_EQ(cap.events[0].first, &lock);
}

TEST(SyncHooksTest, RefCountFiresHookAndHitsZero) {
  HookCapture cap;
  base::SyncHooks::set(&HookCapture::fn, &cap);
  base::RefCount rc(1);
  USK_REF_INC(rc);
  EXPECT_FALSE(rc.dec());
  EXPECT_TRUE(rc.dec());
  base::SyncHooks::reset();
  EXPECT_EQ(rc.value(), 0);
  ASSERT_EQ(cap.events.size(), 3u);
  EXPECT_EQ(cap.events[0].second, base::SyncEvent::kRefInc);
  EXPECT_EQ(cap.events[1].second, base::SyncEvent::kRefDec);
}

TEST(SyncHooksTest, NoHookMeansNoCrash) {
  base::SyncHooks::reset();
  base::SpinLock lock("plain");
  USK_LOCK(lock);
  USK_UNLOCK(lock);
  EXPECT_FALSE(base::SyncHooks::enabled());
}

TEST(SemaphoreTest, DownUp) {
  base::Semaphore sem(2);
  sem.down();
  sem.down();
  EXPECT_EQ(sem.value(), 0);
  sem.up();
  EXPECT_EQ(sem.value(), 1);
}

TEST(IrqStateTest, DepthTracking) {
  base::IrqState irq;
  irq.disable();
  irq.disable();
  EXPECT_EQ(irq.depth(), 2);
  irq.enable();
  irq.enable();
  EXPECT_EQ(irq.depth(), 0);
}

// --- WorkEngine ---------------------------------------------------------------------------

TEST(WorkEngineTest, AccumulatesUnits) {
  base::WorkEngine e;
  std::uint64_t before = e.total_units();
  e.alu(1000);
  e.cache_touch(100);
  EXPECT_GT(e.total_units(), before);
}

TEST(WorkEngineTest, WorkScalesWithUnits) {
  base::WorkEngine e;
  auto t0 = std::chrono::steady_clock::now();
  e.alu(1'000'000);
  auto t1 = std::chrono::steady_clock::now();
  e.alu(10'000'000);
  auto t2 = std::chrono::steady_clock::now();
  auto small = t1 - t0;
  auto big = t2 - t1;
  EXPECT_GT(big, small);  // 10x work takes measurably longer
}

}  // namespace
}  // namespace usk
