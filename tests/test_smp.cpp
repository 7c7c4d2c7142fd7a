// SMP correctness: sharded dcache, per-CPU kmalloc, parallel dispatch.
//
// These tests are the ones the TSan configuration is aimed at:
//   cmake -B build-tsan -S . -DUSK_SANITIZE=thread
//   cmake --build build-tsan -j && (cd build-tsan && ctest -R Smp)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/percpu.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "fs/dcache.hpp"
#include "mm/kmalloc.hpp"
#include "sup/supervisor.hpp"
#include "trace/span.hpp"
#include "uk/userlib.hpp"
#include "numbered.hpp"

namespace usk {
namespace {

// --- per-CPU primitive ------------------------------------------------------

TEST(SmpPerCpuTest, ThreadsGetDistinctSlots) {
  constexpr int kThreads = 8;
  base::PerCpu<std::uint64_t> counters;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      for (int n = 0; n < 1000; ++n) ++counters.local();
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t sum = 0;
  counters.for_each([&](std::uint64_t v) { sum += v; });
  EXPECT_EQ(sum, kThreads * 1000u);
}

TEST(SmpPerCpuTest, SlotsAreCacheLineAligned) {
  base::PerCpu<std::uint32_t> pc;
  auto a = reinterpret_cast<std::uintptr_t>(&pc.slot(0));
  auto b = reinterpret_cast<std::uintptr_t>(&pc.slot(1));
  EXPECT_GE(b - a, 64u);
}

// --- sharded dcache ---------------------------------------------------------

TEST(SmpDcacheTest, ShardsPartitionTheNamespace) {
  fs::Dcache dc(1024, 16);
  EXPECT_EQ(dc.shard_count(), 16u);
  EXPECT_EQ(dc.shard_capacity(), 64u);
  for (int i = 0; i < 500; ++i) {
    dc.insert(1, testutil::numbered("f", i), 100 + i);
  }
  std::size_t total = 0;
  std::size_t populated = 0;
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    std::size_t n = dc.shard_size(s);
    EXPECT_LE(n, dc.shard_capacity());
    total += n;
    if (n > 0) ++populated;
  }
  EXPECT_EQ(total, dc.size());
  // One hot directory must spread across shards (keys hash the name too).
  EXPECT_GT(populated, 8u);
}

TEST(SmpDcacheTest, ConcurrentMixedOperationsKeepInvariants) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr std::size_t kCapacity = 512;
  fs::Dcache dc(kCapacity, 16);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      std::uint32_t x = 0x243F6A88u + static_cast<std::uint32_t>(t);
      for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        fs::InodeNum parent = 1 + (x % 4);
        std::string name = testutil::numbered("n", x % 200);
        switch (x % 10) {
          case 0:
            dc.invalidate(parent, name);
            break;
          case 1:
            dc.invalidate_dir(parent);
            break;
          default:
            if (dc.lookup(parent, name) == fs::kInvalidInode) {
              dc.insert(parent, name, 1000 + (x % 200));
            }
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  // Per-shard LRU capacity is never exceeded, merged stats are coherent.
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    EXPECT_LE(dc.shard_size(s), dc.shard_capacity());
  }
  fs::DcacheStats st = dc.stats();
  EXPECT_GT(st.lookups, 0u);
  EXPECT_GE(st.lookups, st.hits);
  EXPECT_GT(dc.lock_acquisitions(), 0u);
  // Post-condition sanity: the cache still resolves what we insert.
  dc.insert(1, "post", 42);
  EXPECT_EQ(dc.lookup(1, "post"), 42u);
}

// Reference model of the seed's global-lock dcache (global LRU, one map).
// The sharded implementation with shards == 1 must match it operation for
// operation -- that is the configuration bench_evmon uses for E6.
class ReferenceDcache {
 public:
  explicit ReferenceDcache(std::size_t capacity) : capacity_(capacity) {}

  fs::InodeNum lookup(fs::InodeNum parent, const std::string& name) {
    auto it = map_.find({parent, name});
    if (it == map_.end()) return fs::kInvalidInode;
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return it->second.first;
  }
  void insert(fs::InodeNum parent, const std::string& name,
              fs::InodeNum child) {
    Key k{parent, name};
    auto it = map_.find(k);
    if (it != map_.end()) {
      it->second.first = child;
      lru_.splice(lru_.begin(), lru_, it->second.second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(k);
    map_[k] = {child, lru_.begin()};
  }
  void invalidate(fs::InodeNum parent, const std::string& name) {
    auto it = map_.find({parent, name});
    if (it == map_.end()) return;
    lru_.erase(it->second.second);
    map_.erase(it);
  }
  void invalidate_dir(fs::InodeNum parent) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->first.first == parent) {
        lru_.erase(it->second.second);
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  using Key = std::pair<fs::InodeNum, std::string>;
  std::size_t capacity_;
  std::map<Key, std::pair<fs::InodeNum, std::list<Key>::iterator>> map_;
  std::list<Key> lru_;
};

TEST(SmpDcacheTest, OneShardMatchesGlobalLockReferenceModel) {
  constexpr std::size_t kCapacity = 32;
  fs::Dcache dc(kCapacity, 1);
  ASSERT_EQ(dc.shard_count(), 1u);
  ASSERT_EQ(dc.shard_capacity(), kCapacity);
  ReferenceDcache ref(kCapacity);

  std::uint32_t x = 0xB7E15162u;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    fs::InodeNum parent = 1 + (x % 3);
    std::string name = testutil::numbered("e", x % 60);
    switch (x % 12) {
      case 0:
        dc.invalidate(parent, name);
        ref.invalidate(parent, name);
        break;
      case 1:
        dc.invalidate_dir(parent);
        ref.invalidate_dir(parent);
        break;
      case 2:
      case 3: {
        fs::InodeNum child = 500 + (x % 97);
        dc.insert(parent, name, child);
        ref.insert(parent, name, child);
        break;
      }
      default:
        // Lookups must agree AND touch the LRU identically.
        ASSERT_EQ(dc.lookup(parent, name), ref.lookup(parent, name))
            << "step " << i;
    }
    ASSERT_EQ(dc.size(), ref.size()) << "step " << i;
  }
}

// --- per-CPU kmalloc --------------------------------------------------------

TEST(SmpKmallocTest, PerCpuMagazinesNeverHandOutAChunkTwice) {
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  vm::PhysMem phys(1 << 12);
  mm::Kmalloc km(phys, /*per_cpu_cache=*/true);
  ASSERT_TRUE(km.per_cpu_cache());

  // Tag-based double-hand-out detection: every live 64-byte chunk carries
  // a unique tag; a collision on free means the allocator handed the same
  // chunk to two owners.
  std::atomic<std::uint64_t> next_tag{1};
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      std::vector<std::pair<mm::BufferHandle, std::uint64_t>> held;
      held.reserve(64);
      for (int i = 0; i < kIters; ++i) {
        mm::BufferHandle h = km.alloc(48, __FILE__, __LINE__);
        ASSERT_NE(h.raw, nullptr);
        std::uint64_t tag = next_tag.fetch_add(1, std::memory_order_relaxed);
        std::memcpy(h.raw, &tag, sizeof(tag));
        held.emplace_back(h, tag);
        if (held.size() >= 48) {
          for (auto& [hh, tg] : held) {
            std::uint64_t seen;
            std::memcpy(&seen, hh.raw, sizeof(seen));
            if (seen != tg) corrupt.store(true, std::memory_order_relaxed);
            km.free(hh);
          }
          held.clear();
        }
      }
      for (auto& [hh, tg] : held) {
        std::uint64_t seen;
        std::memcpy(&seen, hh.raw, sizeof(seen));
        if (seen != tg) corrupt.store(true, std::memory_order_relaxed);
        km.free(hh);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(corrupt.load()) << "a chunk was live in two owners at once";

  const mm::AllocatorStats& st = km.stats();
  EXPECT_EQ(st.alloc_calls, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(st.free_calls, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(st.outstanding_allocs, 0u);
  EXPECT_EQ(st.outstanding_bytes, 0u);
}

TEST(SmpKmallocTest, CrossCpuFreeKeepsMergedStatsConsistent) {
  vm::PhysMem phys(1 << 10);
  mm::Kmalloc km(phys, /*per_cpu_cache=*/true);

  // Allocate on this thread, free on another: the freeing CPU's signed
  // deltas must cancel the allocating CPU's in the merged view.
  std::vector<mm::BufferHandle> hs;
  for (int i = 0; i < 200; ++i) {
    hs.push_back(km.alloc(80, __FILE__, __LINE__));
    ASSERT_NE(hs.back().raw, nullptr);
  }
  std::thread other([&] {
    for (auto& h : hs) km.free(h);
  });
  other.join();

  const mm::AllocatorStats& st = km.stats();
  EXPECT_EQ(st.alloc_calls, 200u);
  EXPECT_EQ(st.free_calls, 200u);
  EXPECT_EQ(st.outstanding_allocs, 0u);
  EXPECT_EQ(st.outstanding_bytes, 0u);
  EXPECT_DOUBLE_EQ(st.mean_request_size(), 80.0);
  EXPECT_GT(km.cached_chunks(), 0u);  // the magazines kept the chunks
}

TEST(SmpKmallocTest, LargeAllocationsBypassMagazines) {
  vm::PhysMem phys(1 << 10);
  mm::Kmalloc km(phys, /*per_cpu_cache=*/true);
  mm::BufferHandle big = km.alloc(3 * vm::kPageSize, __FILE__, __LINE__);
  ASSERT_NE(big.raw, nullptr);
  EXPECT_EQ(km.stats().outstanding_pages, 3u);
  km.free(big);
  EXPECT_EQ(km.stats().outstanding_pages, 0u);
  EXPECT_EQ(km.stats().outstanding_allocs, 0u);
}

// --- parallel syscall dispatch ----------------------------------------------

TEST(SmpDispatchTest, ParallelSyscallsKeepGlobalAccounting) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 400;
  fs::MemFs fs;
  uk::KernelConfig cfg;
  cfg.kmalloc_per_cpu_cache = true;  // exercise the SMP build end to end
  uk::Kernel kernel(fs, cfg);
  fs.set_cost_hook(kernel.charge_hook());

  uk::Proc setup(kernel, "setup");
  ASSERT_EQ(setup.mkdir("/d"), 0);
  std::vector<std::unique_ptr<uk::Proc>> procs;
  for (int t = 0; t < kThreads; ++t) {
    procs.push_back(
        std::make_unique<uk::Proc>(kernel, testutil::numbered("w", t)));
    char path[32];
    std::snprintf(path, sizeof(path), "/d/f%d", t);
    int fd = setup.open(path, fs::kOWrOnly | fs::kOCreat);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(setup.close(fd), 0);
  }

  std::uint64_t crossings0 = kernel.boundary().stats().crossings;
  kernel.audit().enable();
  kernel.audit().clear();

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      char path[32];
      std::snprintf(path, sizeof(path), "/d/f%d", t);
      fs::StatBuf st;
      char buf[64];
      std::memset(buf, 'x', sizeof(buf));
      for (int i = 0; i < kCallsPerThread; ++i) {
        switch (i % 4) {
          case 0:
            EXPECT_EQ(procs[t]->stat(path, &st), 0);
            break;
          case 1: {
            int fd = procs[t]->open(path, fs::kORdWr);
            EXPECT_GE(fd, 0);
            EXPECT_EQ(procs[t]->close(fd), 0);
            break;
          }
          case 2: {
            int fd = procs[t]->open(path, fs::kOWrOnly);
            EXPECT_GE(fd, 0);
            EXPECT_EQ(procs[t]->write(fd, buf, sizeof(buf)),
                      static_cast<SysRet>(sizeof(buf)));
            EXPECT_EQ(procs[t]->close(fd), 0);
            break;
          }
          default:
            EXPECT_EQ(procs[t]->getpid(),
                      static_cast<SysRet>(procs[t]->task().pid()));
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  kernel.audit().disable();

  // Per-thread syscall mix, 7 calls per 4 iterations: stat(1) +
  // open,close(2) + open,write,close(3) + getpid(1).
  constexpr std::uint64_t kCallsTotal =
      static_cast<std::uint64_t>(kThreads) * kCallsPerThread * 7 / 4;
  EXPECT_EQ(kernel.boundary().stats().crossings - crossings0, kCallsTotal);
  EXPECT_EQ(kernel.audit().records().size(), kCallsTotal);

  // Audit byte deltas are per call and per task: every write record
  // carries exactly its own copied bytes (64 payload per write).
  std::uint64_t write_records = 0;
  for (const auto& r : kernel.audit().records()) {
    if (r.nr == uk::Sys::kWrite) {
      ++write_records;
      EXPECT_EQ(r.bytes_in, 64u);
      EXPECT_EQ(r.bytes_out, 0u);
    }
  }
  EXPECT_EQ(write_records,
            static_cast<std::uint64_t>(kThreads) * kCallsPerThread / 4);

  // Each task saw exactly its own calls.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(procs[t]->task().syscalls,
              static_cast<std::uint64_t>(kCallsPerThread) * 7 / 4);
  }
}

// --- per-Kernel syscall subscribers ---------------------------------------------

TEST(SmpDispatchTest, TwoKernelsKeepTheirSubscribersApart) {
  constexpr int kCalls = 400;
  fs::MemFs fs_a;
  fs::MemFs fs_b;
  uk::Kernel a(fs_a);
  uk::Kernel b(fs_b);
  fs_a.set_cost_hook(a.charge_hook());
  fs_b.set_cost_hook(b.charge_hook());
  uk::Proc pa(a, "a");
  uk::Proc pb(b, "b");
  ASSERT_EQ(pa.mkdir("/d"), 0);
  ASSERT_EQ(pb.mkdir("/d"), 0);

  // Only A is audited and supervised. B's thread binds a guard of A's
  // supervisor too, so only the per-Kernel subscription keeps B's
  // calls out of A's accounting.
  sup::Supervisor sup_a(a);
  const sup::ExtId on_a =
      sup_a.register_extension("on-a", sup::Vehicle::kConsolidated);
  const sup::ExtId on_b =
      sup_a.register_extension("on-b", sup::Vehicle::kConsolidated);
  a.audit().enable();
  a.audit().clear();

  // A second supervisor subscribes to and unsubscribes from A while A
  // dispatches: the dispatchers start once the churn has.
  std::atomic<std::uint64_t> churns{0};
  auto work = [&churns](uk::Proc& p) {
    while (churns.load() == 0) std::this_thread::yield();
    fs::StatBuf st;
    for (int i = 0; i < kCalls; ++i) {
      if (i % 2 == 0) {
        EXPECT_EQ(p.stat("/d", &st), 0);
      } else {
        EXPECT_EQ(p.getpid(), static_cast<SysRet>(p.task().pid()));
      }
    }
  };
  std::atomic<int> running{2};
  std::thread ta([&] {
    sup::InvocationGuard g(sup_a, on_a, &pa.task(), sup::Route::kKernel);
    work(pa);
    --running;
  });
  std::thread tb([&] {
    sup::InvocationGuard g(sup_a, on_b, &pb.task(), sup::Route::kKernel);
    work(pb);
    --running;
  });
  std::thread tc([&] {
    while (running.load() != 0) {
      sup::Supervisor second(a);
      (void)second.register_extension("churn", sup::Vehicle::kCosy);
      ++churns;
    }
  });
  ta.join();
  tb.join();
  tc.join();
  a.audit().disable();

  EXPECT_GT(churns.load(), 0u);
  EXPECT_TRUE(a.has_subscribers());  // sup_a, still alive
  EXPECT_FALSE(b.has_subscribers());
  // A's log holds exactly A's calls, and the units A's supervisor was
  // handed are exactly the units those records carry.
  const std::vector<uk::SyscallRecord>& recs = a.audit().records();
  EXPECT_EQ(recs.size(), static_cast<std::size_t>(kCalls));
  std::uint64_t units = 0;
  for (const uk::SyscallRecord& r : recs) units += r.kunits;
  EXPECT_GT(units, 0u);
  EXPECT_EQ(sup_a.stats(on_a).units_total, units);
  EXPECT_EQ(sup_a.stats(on_b).units_total, 0u);
  EXPECT_TRUE(b.audit().records().empty());
}

TEST(SmpDispatchTest, TwoKernelsKeepTheirKdlApart) {
  constexpr int kCalls = 400;
  fs::MemFs fs_a;
  fs::MemFs fs_b;
  uk::Kernel a(fs_a);
  uk::Kernel b(fs_b);
  fs_a.set_cost_hook(a.charge_hook());
  fs_b.set_cost_hook(b.charge_hook());
  uk::Proc pa(a, "a");
  uk::Proc pb(b, "b");
  b.mount_procfs();

  // Only A arms kdl. Both threads dispatch under already-expired
  // deadlines; only A's gateway may refuse them.
  a.dl().set_enabled(true);
  b.dl().set_enabled(false);
  std::atomic<int> ready{0};
  auto work = [&ready](uk::Proc& p, SysRet want) {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kCalls; ++i) {
      dl::DeadlineScope s(p.kernel().dl(), std::chrono::nanoseconds(0),
                          &p.task());
      EXPECT_EQ(p.getpid(), want);
    }
  };
  std::thread ta(work, std::ref(pa), sysret_err(Errno::kETIMEDOUT));
  std::thread tb(work, std::ref(pb), static_cast<SysRet>(pb.task().pid()));
  ta.join();
  tb.join();

  EXPECT_EQ(a.dl().stats().gateway_expired.load(),
            static_cast<std::uint64_t>(kCalls));
  const int fd = pb.open("/proc/dl/stats", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  std::string stats;
  char buf[1024];
  for (SysRet n; (n = pb.read(fd, buf, sizeof buf)) > 0;) {
    stats.append(buf, static_cast<std::size_t>(n));
  }
  pb.close(fd);
  EXPECT_NE(stats.find("\nattached 0\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\ngateway_expired 0\n"), std::string::npos) << stats;
}

// --- per-Kernel syscall latency histograms ------------------------------------

/// The whole text of `path`, read through `p`'s own syscalls.
std::string cat(uk::Proc& p, const char* path) {
  const int fd = p.open(path, fs::kORdOnly);
  EXPECT_GE(fd, 0) << path;
  std::string out;
  char buf[1024];
  for (SysRet n; (n = p.read(fd, buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  p.close(fd);
  return out;
}

TEST(SmpDispatchTest, SyscallHistogramCountsEveryCallAcrossCpus) {
  // Four threads on A record into the same histogram at once; its count
  // is exact. B dispatches at the same time and must not land in A's
  // histogram.
  constexpr int kThreads = 4;
  constexpr int kCalls = 2000;
  fs::MemFs fs_a;
  fs::MemFs fs_b;
  uk::Kernel a(fs_a);
  uk::Kernel b(fs_b);
  std::vector<std::unique_ptr<uk::Proc>> procs;
  for (int t = 0; t < kThreads; ++t) {
    procs.push_back(
        std::make_unique<uk::Proc>(a, testutil::numbered("a", t)));
  }
  uk::Proc pb(b, "b");
  std::atomic<int> ready{0};
  auto work = [&ready](uk::Proc& p) {
    ++ready;
    while (ready.load() < kThreads + 1) std::this_thread::yield();
    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(p.getpid(), static_cast<SysRet>(p.task().pid()));
    }
  };
  std::vector<std::thread> ts;
  for (auto& p : procs) ts.emplace_back(work, std::ref(*p));
  ts.emplace_back(work, std::ref(pb));
  for (auto& t : ts) t.join();

  const trace::HistogramSnapshot h = a.syscall_latency(uk::Sys::kGetpid);
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kThreads) * kCalls);
  std::uint64_t in_buckets = 0;
  for (std::uint64_t n : h.buckets) in_buckets += n;
  EXPECT_EQ(in_buckets, h.count);
  EXPECT_EQ(b.syscall_latency(uk::Sys::kGetpid).count,
            static_cast<std::uint64_t>(kCalls));
}

TEST(SmpDispatchTest, TwoKernelsKeepTheirSyscallHistogramsApart) {
  constexpr int kCallsA = 300;
  constexpr int kCallsB = 500;
  fs::MemFs fs_a;
  fs::MemFs fs_b;
  uk::Kernel a(fs_a);
  uk::Kernel b(fs_b);
  uk::Proc pa(a, "a");
  uk::Proc pb(b, "b");
  a.mount_procfs();
  b.mount_procfs();

  // A makes getpid calls only; B makes getpid and sync calls at the same
  // time.
  std::atomic<int> ready{0};
  std::thread ta([&] {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kCallsA; ++i) pa.getpid();
  });
  std::thread tb([&] {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kCallsB; ++i) {
      pb.getpid();
      pb.sync();
    }
  });
  ta.join();
  tb.join();

  const std::string hist = cat(pa, "/proc/trace/hist/syscall");
  EXPECT_NE(hist.find("getpid count " + std::to_string(kCallsA) + " "),
            std::string::npos)
      << hist;
  EXPECT_EQ(hist.find("sync count"), std::string::npos) << hist;
  const std::string prom = cat(pa, "/proc/metrics");
  EXPECT_NE(prom.find("usk_syscall_latency_ns_count{syscall=\"getpid\"} " +
                      std::to_string(kCallsA) + "\n"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("{syscall=\"sync\""), std::string::npos);
  const std::string hist_b = cat(pb, "/proc/trace/hist/syscall");
  EXPECT_NE(hist_b.find("getpid count " + std::to_string(kCallsB) + " "),
            std::string::npos)
      << hist_b;
  EXPECT_NE(hist_b.find("sync count " + std::to_string(kCallsB) + " "),
            std::string::npos)
      << hist_b;
}

/// Write `text` into `path` through `p`'s own syscalls.
void echo(uk::Proc& p, const char* path, const char* text) {
  const int fd = p.open(path, fs::kOWrOnly);
  ASSERT_GE(fd, 0) << path;
  const auto n = static_cast<SysRet>(std::strlen(text));
  EXPECT_EQ(p.write(fd, text, static_cast<std::size_t>(n)), n) << path;
  p.close(fd);
}

/// Lines of `text` that contain `needle`.
std::size_t count_lines(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = 0; (at = text.find(needle, at)) != std::string::npos;
       at += needle.size()) {
    ++n;
  }
  return n;
}

TEST(SmpDispatchTest, TwoKernelsKeepTheirTracersApart) {
  constexpr int kCalls = 200;
  fs::MemFs fs_a;
  fs::MemFs fs_b;
  uk::Kernel a(fs_a);
  uk::Kernel b(fs_b);
  uk::Proc pa(a, "a");
  uk::Proc pb(b, "b");
  a.mount_procfs();
  b.mount_procfs();

  // Only A is armed, through its own /proc; B is left as it was built.
  echo(pa, "/proc/trace/enable", "1\n");
  echo(pa, "/proc/span/enable", "1\n");
  EXPECT_EQ(cat(pb, "/proc/trace/enable"), "0\n");
  EXPECT_EQ(cat(pb, "/proc/span/enable"), "0\n");

  // Both dispatch the same traced, span-wrapped call at the same time.
  std::atomic<int> ready{0};
  auto work = [&ready](uk::Proc& p, const char* name) {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kCalls; ++i) {
      trace::SpanScope span(p.kernel().kspan(), name);
      EXPECT_EQ(p.getpid(), static_cast<SysRet>(p.task().pid()));
    }
  };
  std::thread ta(work, std::ref(pa), "a.req");
  std::thread tb(work, std::ref(pb), "b.req");
  ta.join();
  tb.join();
  echo(pa, "/proc/trace/enable", "0\n");
  echo(pa, "/proc/span/enable", "0\n");

  // B stayed disarmed and saw none of it.
  EXPECT_FALSE(b.ktrace().is_enabled());
  EXPECT_FALSE(b.kspan().is_enabled());
  const std::string events_b = cat(pb, "/proc/trace/events");
  EXPECT_NE(events_b.find("emitted 0\n"), std::string::npos) << events_b;
  EXPECT_EQ(events_b.find("syscall:"), std::string::npos) << events_b;
  EXPECT_EQ(count_lines(cat(pb, "/proc/span/spans"), ".req"), 0u);
  const std::string prom_b = cat(pb, "/proc/metrics");
  EXPECT_NE(prom_b.find("\nusk_trace_events_emitted 0\n"), std::string::npos);
  EXPECT_NE(prom_b.find("\nusk_spans_started 0\n"), std::string::npos);

  // A counted its own calls only: every getpid it traced is one of pa's
  // kCalls, every span is one of its a.req spans.
  const std::string spans_a = cat(pa, "/proc/span/spans");
  EXPECT_EQ(count_lines(spans_a, " a.req "), static_cast<std::size_t>(kCalls));
  EXPECT_EQ(count_lines(spans_a, " b.req "), 0u);
  const std::string prom_a = cat(pa, "/proc/metrics");
  EXPECT_NE(prom_a.find("\nusk_spans_started " + std::to_string(kCalls) +
                        "\n"),
            std::string::npos)
      << prom_a;
  const std::vector<trace::TraceEvent> events = a.ktrace().drain();
  EXPECT_NE(prom_a.find("\nusk_trace_events_emitted " +
                        std::to_string(events.size()) + "\n"),
            std::string::npos)
      << prom_a;
  std::size_t getpid_enters = 0;
  for (const trace::TraceEvent& e : events) {
    EXPECT_EQ(e.pid, pa.task().pid());
    if (std::string(trace::site_subsys(e.site)) == "syscall" &&
        std::string(trace::site_name(e.site)) == "enter" &&
        e.arg0 == static_cast<std::uint64_t>(uk::Sys::kGetpid)) {
      ++getpid_enters;
    }
  }
  EXPECT_EQ(getpid_enters, static_cast<std::size_t>(kCalls));
}

TEST(SmpDispatchTest, TwoKernelsKeepTheirInjectorsApart) {
  constexpr int kCalls = 300;
  fs::MemFs fs_a;
  fs::MemFs fs_b;
  uk::Kernel a(fs_a);
  uk::Kernel b(fs_b);
  uk::Proc pa(a, "a");
  uk::Proc pb(b, "b");
  a.mount_procfs();
  b.mount_procfs();
  ASSERT_EQ(pa.mkdir("/d"), 0);
  ASSERT_EQ(pb.mkdir("/d"), 0);

  // Only A is armed, through its own /proc: every copy-in on A faults.
  echo(pa, "/proc/fail/spec", "copy_in:p=1\n");
  ASSERT_TRUE(a.kfail().site_armed(fault::Site::kCopyIn));

  // Both dispatch the same path-copying call at the same time.
  std::atomic<int> ready{0};
  auto work = [&ready](uk::Proc& p, SysRet want) {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    fs::StatBuf st;
    for (int i = 0; i < kCalls; ++i) EXPECT_EQ(p.stat("/d", &st), want);
  };
  std::thread ta(work, std::ref(pa), sysret_err(Errno::kEFAULT));
  std::thread tb(work, std::ref(pb), SysRet{0});
  ta.join();
  tb.join();

  // B's injector saw none of it: no site checked.
  const std::string stats_b = cat(pb, "/proc/fail/stats");
  EXPECT_EQ(count_lines(stats_b, " checks 0 "), fault::kNumSites) << stats_b;

  // A counted its own calls only: one path copy-in each.
  a.kfail().disarm_all();
  const std::string stats_a = cat(pa, "/proc/fail/stats");
  const std::string want = "copy_in      armed 0 checks " +
                           std::to_string(kCalls) + " injected " +
                           std::to_string(kCalls) + " ";
  EXPECT_NE(stats_a.find(want), std::string::npos) << stats_a;
}

/// Counts calls that run, or are still running, once unsubscribe returned.
struct SlowSubscriber final : uk::SyscallSubscriber {
  std::atomic<bool> unsubscribed{false};
  std::atomic<int> calls{0};
  std::atomic<int> late{0};
  void on_syscall(const uk::SyscallRecord&) override {
    ++calls;
    if (unsubscribed.load()) ++late;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (unsubscribed.load()) ++late;
  }
};

TEST(SmpDispatchTest, UnsubscribeWaitsForInFlightCalls) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  uk::Proc p(kernel, "p");
  std::atomic<bool> stop{false};
  std::thread dispatcher([&] {
    while (!stop.load()) (void)p.getpid();
  });
  for (int round = 0; round < 20; ++round) {
    SlowSubscriber s;
    kernel.subscribe(s);
    while (s.calls.load() == 0) std::this_thread::yield();
    kernel.unsubscribe(s);
    s.unsubscribed = true;
    // A call unsubscribe failed to wait for would finish in this window.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    EXPECT_EQ(s.late.load(), 0);
  }
  stop = true;
  dispatcher.join();
}

}  // namespace
}  // namespace usk
