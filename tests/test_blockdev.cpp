// Tests for the simulated disk (seek model), the write-back buffer cache,
// the MemFs I/O-model integration, and the lock-hold profiler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "base/rng.hpp"
#include "base/sync.hpp"
#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "evmon/dispatcher.hpp"
#include "evmon/profiler.hpp"
#include "fs/journalfs.hpp"
#include "fs/memfs.hpp"
#include "uk/kernel.hpp"
#include "kfail_fixture.hpp"
#include "numbered.hpp"

namespace usk {
namespace {

using DiskTest = testutil::KfailTest;
using BufferCacheTest = testutil::KfailTest;
using MemFsIoModelTest = testutil::KfailTest;
using JournalFsIoModelTest = testutil::KfailTest;

// --- kfail from the environment ------------------------------------------------

TEST(KfailEnvTest, UskFailSpecArmsEveryNewInjector) {
  if (std::getenv("USK_FAIL_SPEC") == nullptr) {
    GTEST_SKIP() << "runs under a USK_FAIL_SPEC soak label (faults, storage)";
  }
  fault::Kfail first;
  const std::string armed = first.format_spec();
  ASSERT_NE(armed.find("disk.read:"), std::string::npos) << armed;
  // Disarming one injector leaves every new one armed from the
  // environment: a Kernel's and a thread's bound one alike.
  first.disarm_all();
  fs::MemFs fs;
  uk::Kernel k(fs);
  EXPECT_EQ(k.kfail().format_spec(), armed);
  fault::Kfail kf;
  fault::Kfail::Bind bind(&kf);
  EXPECT_EQ(kf.format_spec(), armed);

  blockdev::Disk disk(1 << 12);
  for (std::uint64_t lba = 0; lba < 2000; ++lba) {
    ASSERT_TRUE(disk.read(lba).ok());
  }
  EXPECT_GT(kf.stats(fault::Site::kDiskRead).transients, 0u);
}

// --- Disk ------------------------------------------------------------------------------

TEST_F(DiskTest, SequentialIsCheapRandomSeeks) {
  blockdev::Disk disk(1 << 20);
  std::uint64_t charged = 0;
  disk.set_charge_hook([&](std::uint64_t u) { charged += u; });

  // Sequential scan: only the first access seeks.
  for (blockdev::Lba lba = 0; lba < 64; ++lba) ASSERT_TRUE(disk.read(lba).ok());
  std::uint64_t seq_units = charged;
  EXPECT_EQ(disk.stats().seeks, 0u);  // head starts at 0
  EXPECT_EQ(disk.stats().sequential_hits, 64u);

  // Random probes: every access seeks, and costs far more.
  charged = 0;
  base::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(disk.read(rng.below(1 << 20)).ok());
  }
  EXPECT_GT(disk.stats().seeks, 60u);
  EXPECT_GT(charged, seq_units * 5);
}

TEST_F(DiskTest, SeekCostGrowsWithDistance) {
  blockdev::Disk disk(1 << 20);
  std::uint64_t charged = 0;
  disk.set_charge_hook([&](std::uint64_t u) { charged = u; });

  ASSERT_TRUE(disk.read(0).ok());
  ASSERT_TRUE(disk.read(100).ok());  // short seek
  std::uint64_t short_seek = charged;
  ASSERT_TRUE(disk.read(0).ok());
  ASSERT_TRUE(disk.read(1 << 19).ok());  // long seek
  std::uint64_t long_seek = charged;
  EXPECT_GT(long_seek, short_seek);
}

TEST_F(DiskTest, HeadFollowsTransfers) {
  blockdev::Disk disk(1024);
  ASSERT_TRUE(disk.read(10).ok());
  EXPECT_EQ(disk.head(), 11u);
  ASSERT_TRUE(disk.read(11).ok());  // sequential
  EXPECT_EQ(disk.stats().sequential_hits, 1u);
}

// --- BufferCache --------------------------------------------------------------------------

TEST_F(BufferCacheTest, HitsAvoidTheDisk) {
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 64);
  for (int round = 0; round < 10; ++round) {
    for (blockdev::Lba lba = 0; lba < 32; ++lba) ASSERT_TRUE(cache.read(lba).ok());
  }
  EXPECT_EQ(cache.stats().misses, 32u);       // first round only
  EXPECT_EQ(cache.stats().hits, 9u * 32u);
  EXPECT_EQ(disk.stats().reads, 32u);
  EXPECT_GT(cache.stats().hit_rate(), 0.89);
}

TEST_F(BufferCacheTest, LruEvictionOrder) {
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 4);
  ASSERT_TRUE(cache.read(1).ok());
  ASSERT_TRUE(cache.read(2).ok());
  ASSERT_TRUE(cache.read(3).ok());
  ASSERT_TRUE(cache.read(4).ok());
  ASSERT_TRUE(cache.read(1).ok());  // refresh 1
  ASSERT_TRUE(cache.read(5).ok());  // evicts 2
  std::uint64_t misses = cache.stats().misses;
  ASSERT_TRUE(cache.read(1).ok());  // still cached
  EXPECT_EQ(cache.stats().misses, misses);
  ASSERT_TRUE(cache.read(2).ok());  // was evicted
  EXPECT_EQ(cache.stats().misses, misses + 1);
}

TEST_F(BufferCacheTest, WriteBackOnlyOnEvictionOrFlush) {
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 8);
  for (blockdev::Lba lba = 0; lba < 8; ++lba) ASSERT_TRUE(cache.write(lba).ok());
  // Writes are buffered: the disk saw only the fill reads.
  EXPECT_EQ(disk.stats().writes, 0u);
  ASSERT_TRUE(cache.flush().ok());
  EXPECT_EQ(disk.stats().writes, 8u);
  EXPECT_EQ(cache.stats().writebacks, 8u);
  // Clean after flush: another flush writes nothing.
  ASSERT_TRUE(cache.flush().ok());
  EXPECT_EQ(disk.stats().writes, 8u);
}

TEST_F(BufferCacheTest, DirtyEvictionWritesBack) {
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 2);
  ASSERT_TRUE(cache.write(1).ok());
  ASSERT_TRUE(cache.write(2).ok());
  ASSERT_TRUE(cache.read(3).ok());  // evicts dirty 1
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// --- MemFs integration -------------------------------------------------------------------

TEST_F(MemFsIoModelTest, SequentialFileBeatsRandomProbes) {
  blockdev::Disk disk(1 << 16);
  std::uint64_t charged = 0;
  disk.set_charge_hook([&](std::uint64_t u) { charged += u; });
  blockdev::BufferCache cache(disk, 16);  // small cache: misses dominate
  fs::MemFs fs;
  fs.set_io_model(&cache);

  auto ino = fs.create(fs.root(), "big", fs::FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::byte> block(4096, std::byte{1});
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(fs.write(ino.value(), static_cast<std::uint64_t>(i) * 4096,
                         block).ok());
  }

  // Sequential scan.
  charged = 0;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(fs.read(ino.value(), static_cast<std::uint64_t>(i) * 4096,
                        block).ok());
  }
  std::uint64_t seq = charged;

  // Random probes over the same file.
  charged = 0;
  base::Rng rng(7);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(fs.read(ino.value(), rng.below(256) * 4096, block).ok());
  }
  std::uint64_t rnd = charged;
  EXPECT_GT(rnd, seq * 3);  // random I/O pays seeks
}

TEST_F(MemFsIoModelTest, DetachedModelTouchesNoDisk) {
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 64);
  fs::MemFs fs;
  fs.set_io_model(&cache);
  auto ino = fs.create(fs.root(), "f", fs::FileType::kRegular, 0644);
  std::vector<std::byte> data(100, std::byte{2});
  fs.write(ino.value(), 0, data);
  EXPECT_GT(cache.stats().lookups, 0u);
  std::uint64_t before = cache.stats().lookups;
  fs.set_io_model(nullptr);
  fs.write(ino.value(), 0, data);
  EXPECT_EQ(cache.stats().lookups, before);
}

TEST_F(JournalFsIoModelTest, JournalWritesAreSequentialCheckpointsSeek) {
  blockdev::Disk disk(1 << 16);
  blockdev::BufferCache cache(disk, 512);
  fs::JournalFs<fs::RawPtrPolicy> jfs(256, 2048, /*journal_slots=*/256,
                                      /*commit_interval=*/1000000);
  jfs.set_io_model(&cache);

  // Metadata-heavy activity: many journal records, no commits yet.
  for (int i = 0; i < 40; ++i) {
    auto f = jfs.create(jfs.root(), testutil::numbered("f", i),
                        fs::FileType::kRegular, 0644);
    ASSERT_TRUE(f.ok());
    std::vector<std::byte> data(600, std::byte{1});
    ASSERT_TRUE(jfs.write(f.value(), 0, data).ok());
  }
  // The journal strip occupies low LBAs and is written in order, so the
  // disk saw mostly sequential access despite scattered data blocks.
  std::uint64_t seq = disk.stats().sequential_hits;
  std::uint64_t seeks = disk.stats().seeks;
  EXPECT_GT(seq, 0u);

  // sync() checkpoints: the deferred dirty data blocks flush to their
  // scattered home locations -- a burst of seeking writes.
  ASSERT_EQ(jfs.sync(), Errno::kOk);
  std::uint64_t checkpoint_seeks = disk.stats().seeks - seeks;
  EXPECT_GT(disk.stats().writes, 0u);
  EXPECT_GT(checkpoint_seeks + (disk.stats().sequential_hits - seq), 0u);
  // Consistency still holds.
  auto rep = jfs.fsck();
  EXPECT_TRUE(rep.clean);
}

// --- LockProfiler --------------------------------------------------------------------------

TEST(LockProfilerTest, MeasuresHoldTimes) {
  evmon::Dispatcher d;
  evmon::LockProfiler prof;
  prof.attach(d);
  d.install_sync_bridge();

  base::SpinLock fast("fast");
  base::SpinLock slow("slow");
  for (int i = 0; i < 5; ++i) {
    USK_LOCK(fast);
    USK_UNLOCK(fast);
  }
  USK_LOCK(slow);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  USK_UNLOCK(slow);
  d.remove_sync_bridge();

  auto report = prof.report();
  ASSERT_EQ(report.size(), 2u);
  // The slow lock dominates total hold time and sorts first.
  EXPECT_EQ(report[0].object, &slow);
  EXPECT_EQ(report[0].acquisitions, 1u);
  EXPECT_GT(report[0].max_hold_ns, 3'000'000u);
  const evmon::HoldStats* fast_stats = prof.stats_for(&fast);
  ASSERT_NE(fast_stats, nullptr);
  EXPECT_EQ(fast_stats->acquisitions, 5u);
  EXPECT_LT(fast_stats->mean_hold_ns(), report[0].mean_hold_ns());
}

TEST(LockProfilerTest, RecordsWorstHoldSite) {
  evmon::Dispatcher d;
  evmon::LockProfiler prof;
  prof.attach(d);
  void* lock = reinterpret_cast<void*>(0x77);
  d.log_event(lock, evmon::EventType::kSpinLock, "fast_path.c", 10);
  d.log_event(lock, evmon::EventType::kSpinUnlock, "fast_path.c", 11);
  d.log_event(lock, evmon::EventType::kSpinLock, "slow_path.c", 99);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  d.log_event(lock, evmon::EventType::kSpinUnlock, "slow_path.c", 120);
  const evmon::HoldStats* st = prof.stats_for(lock);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->acquisitions, 2u);
  EXPECT_NE(st->site.find("slow_path.c:99"), std::string::npos);
}

TEST(LockProfilerTest, UnmatchedReleaseIgnored) {
  evmon::Dispatcher d;
  evmon::LockProfiler prof;
  prof.attach(d);
  d.log_event(reinterpret_cast<void*>(0x1), evmon::EventType::kSpinUnlock,
              "x.c", 1);
  EXPECT_TRUE(prof.report().empty());
}

}  // namespace
}  // namespace usk
