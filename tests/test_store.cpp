// Tests for kstore, the persistent storage tier: BackingImage persistence
// and mode parity, buffer-cache LRU/writeback/data-plane behaviour,
// group-commit amortization, ENOSPC auto-checkpoint, dual-slot superblock
// survival, committed-prefix recovery, the store.* kfail sites, the
// JournalFs<->Store bridge (format/restore round trip), supervisor
// dirty-page budgets through the cache's dirty gate, and the
// /proc/blockdev/cache + /proc/store/** renderers.
//
// Image files live in a per-test mkdtemp directory (tests/temp_dir.hpp),
// so parallel ctest shards never share a file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "fault/kfail.hpp"
#include "fs/journalfs.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "metrics/metrics.hpp"
#include "store/image.hpp"
#include "store/journal.hpp"
#include "store/store.hpp"
#include "sup/supervisor.hpp"
#include "uk/kernel.hpp"
#include "uk/kproc.hpp"
#include "uk/userlib.hpp"
#include "temp_dir.hpp"

namespace usk {
namespace {

using store::BackingImage;
using store::ImageMode;
using store::JTxn;
using store::Store;
using store::StoreConfig;

/// kfail is process-wide: start and end disarmed (same discipline as
/// test_fault) so an armed store.* site can never leak into a sibling.
class StoreTest : public ::testing::Test {
 protected:
  StoreTest() {
    fault::kfail().disarm_all();
    fault::kfail().reset_stats();
    fault::kfail().set_seed(0x57012);
  }
  ~StoreTest() override {
    fault::kfail().disarm_all();
    fault::kfail().reset_stats();
  }

  /// Path of an image file in this test's temporary directory.
  std::string img(const std::string& name) { return dir_.file(name); }

  static std::vector<std::uint8_t> pattern(std::uint8_t tag) {
    std::vector<std::uint8_t> b(store::kBlockBytes);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(tag ^ (i & 0xff));
    }
    return b;
  }

  testutil::TempDir dir_;
};

/// In-memory BlockBackend that records write order -- the observation
/// point for eviction ordering and writeback-integrity tests.
class TestBackend final : public blockdev::BlockBackend {
 public:
  explicit TestBackend(std::size_t blocks)
      : store_(blocks * store::kBlockBytes, 0) {}

  Result<void> backend_read(std::uint64_t lba, void* buf) override {
    std::memcpy(buf, store_.data() + lba * store::kBlockBytes,
                store::kBlockBytes);
    return {};
  }
  Result<void> backend_write(std::uint64_t lba, const void* buf) override {
    std::memcpy(store_.data() + lba * store::kBlockBytes, buf,
                store::kBlockBytes);
    write_order.push_back(lba);
    return {};
  }
  Result<void> backend_flush() override {
    ++flushes;
    return {};
  }

  [[nodiscard]] const std::uint8_t* block(std::uint64_t lba) const {
    return store_.data() + lba * store::kBlockBytes;
  }

  std::vector<std::uint64_t> write_order;
  std::uint64_t flushes = 0;

 private:
  std::vector<std::uint8_t> store_;
};

// --- BackingImage -------------------------------------------------------------

TEST_F(StoreTest, ImagePersistsAcrossReopen) {
  const std::string path = img("ts_persist.img");
  std::vector<std::uint8_t> a = pattern(0x11), b = pattern(0x22);
  {
    BackingImage im;
    ASSERT_TRUE(im.open(path, 8).ok());
    ASSERT_TRUE(im.write_block(0, a.data()).ok());
    ASSERT_TRUE(im.write_block(7, b.data()).ok());
    const char hdr[] = "SBMAGIC";
    ASSERT_TRUE(im.write_bytes(2 * store::kBlockBytes + 100, hdr, 7).ok());
    ASSERT_TRUE(im.flush().ok());
    EXPECT_GE(im.stats().pwrites, 3u);
    EXPECT_GE(im.stats().fsyncs, 1u);
    im.close();
  }
  {
    BackingImage im;
    ASSERT_TRUE(im.open(path, 8).ok());
    std::vector<std::uint8_t> rb(store::kBlockBytes);
    ASSERT_TRUE(im.read_block(0, rb.data()).ok());
    EXPECT_EQ(rb, a);
    ASSERT_TRUE(im.read_block(7, rb.data()).ok());
    EXPECT_EQ(rb, b);
    char hdr[8] = {};
    ASSERT_TRUE(im.read_bytes(2 * store::kBlockBytes + 100, hdr, 7).ok());
    EXPECT_STREQ(hdr, "SBMAGIC");
  }
}

TEST_F(StoreTest, MmapModeParityWithPread) {
  const std::string path = img("ts_mmap.img");
  std::vector<std::uint8_t> a = pattern(0x33);
  {
    BackingImage im;
    ASSERT_TRUE(im.open(path, 4, ImageMode::kMmap).ok());
    ASSERT_TRUE(im.write_block(1, a.data()).ok());
    ASSERT_TRUE(im.flush().ok());
    im.close();
  }
  // What mmap wrote, pread reads -- same file, same contract.
  BackingImage im;
  ASSERT_TRUE(im.open(path, 4, ImageMode::kPread).ok());
  std::vector<std::uint8_t> rb(store::kBlockBytes);
  ASSERT_TRUE(im.read_block(1, rb.data()).ok());
  EXPECT_EQ(rb, a);
}

// --- buffer cache: LRU + data plane -------------------------------------------

TEST_F(StoreTest, LruEvictionWritesBackLeastRecentDirtyBlock) {
  blockdev::Disk disk(64);
  blockdev::BufferCache cache(disk, 4);
  TestBackend be(64);
  cache.set_backend(&be);

  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    ASSERT_TRUE(cache.write_data(lba, pattern(std::uint8_t(lba)).data()).ok());
  }
  // Touch 0 so 1 becomes least-recent; inserting 4 must evict 1 first.
  std::vector<std::uint8_t> rb(store::kBlockBytes);
  ASSERT_TRUE(cache.read_data(0, rb.data()).ok());
  ASSERT_TRUE(cache.write_data(4, pattern(4).data()).ok());

  ASSERT_EQ(be.write_order.size(), 1u);
  EXPECT_EQ(be.write_order[0], 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(0, std::memcmp(be.block(1), pattern(1).data(), store::kBlockBytes));

  // Flush writes the rest; every block's payload must land intact.
  ASSERT_TRUE(cache.sync_barrier().ok());
  for (std::uint64_t lba : {0ull, 2ull, 3ull, 4ull}) {
    EXPECT_EQ(0, std::memcmp(be.block(lba),
                             pattern(std::uint8_t(lba)).data(),
                             store::kBlockBytes))
        << "lba " << lba;
  }
  EXPECT_GE(be.flushes, 1u);
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST_F(StoreTest, DirtyWritebackSurvivesTransientDiskFaults) {
  blockdev::Disk disk(128);
  blockdev::BufferCache cache(disk, 32);
  TestBackend be(128);
  cache.set_backend(&be);

  fault::SiteConfig c;
  c.p = 0.3;
  c.transient = true;
  fault::kfail().arm(fault::Site::kDiskWrite, c);

  for (std::uint64_t lba = 0; lba < 24; ++lba) {
    ASSERT_TRUE(cache.write_data(lba, pattern(std::uint8_t(lba)).data()).ok());
  }
  ASSERT_TRUE(cache.sync_barrier().ok());
  fault::kfail().disarm_all();

  // No block lost, no block duplicated, every payload intact.
  std::vector<int> seen(24, 0);
  for (std::uint64_t lba : be.write_order) {
    ASSERT_LT(lba, 24u);
    ++seen[lba];
  }
  for (std::uint64_t lba = 0; lba < 24; ++lba) {
    EXPECT_EQ(seen[lba], 1) << "lba " << lba;
    EXPECT_EQ(0, std::memcmp(be.block(lba),
                             pattern(std::uint8_t(lba)).data(),
                             store::kBlockBytes));
  }
  EXPECT_GT(fault::kfail().stats(fault::Site::kDiskWrite).transients, 0u);
}

TEST_F(StoreTest, HardWritebackFailureLeavesBlockDirtyForRetry) {
  blockdev::Disk disk(16);
  blockdev::BufferCache cache(disk, 8);
  TestBackend be(16);
  cache.set_backend(&be);

  ASSERT_TRUE(cache.write_data(3, pattern(3).data()).ok());
  fault::SiteConfig c;
  c.p = 1.0;
  fault::kfail().arm(fault::Site::kDiskWrite, c);
  EXPECT_FALSE(cache.flush().ok());
  EXPECT_EQ(cache.dirty_count(), 1u);  // still dirty: nothing dropped
  fault::kfail().disarm_all();
  ASSERT_TRUE(cache.flush().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(0, std::memcmp(be.block(3), pattern(3).data(), store::kBlockBytes));
}

TEST_F(StoreTest, BackgroundFlusherWritesConcurrentlyWithWriters) {
  blockdev::Disk disk(256);
  blockdev::BufferCache cache(disk, 64);
  TestBackend be(256);
  cache.set_backend(&be);

  blockdev::WritebackConfig wb;
  wb.interval_ms = 2;
  wb.dirty_ratio_pct = 0;  // every pass writes all dirty blocks
  wb.max_age_ms = 0;
  cache.start_writeback(wb);

  // 4 writer threads x 64 writes over 32 blocks, racing the flusher.
  // (The `storage` soak re-runs this under TSan.)
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&cache, t] {
      for (int i = 0; i < 64; ++i) {
        auto blk = StoreTest::pattern(std::uint8_t(t * 64 + i));
        (void)cache.write_data(std::uint64_t((t * 64 + i) % 32), blk.data());
        if (i % 16 == 0) cache.kick_writeback();
      }
    });
  }
  for (auto& t : ts) t.join();
  // On a loaded single-core box the writers can finish before the flusher
  // ever wins a pass; keep the dirty set non-empty and wait (bounded)
  // until the background thread has demonstrably written something.
  for (int spin = 0; spin < 500 && cache.stats().bg_writebacks == 0; ++spin) {
    auto blk = StoreTest::pattern(std::uint8_t(spin));
    (void)cache.write_data(std::uint64_t(spin % 32), blk.data());
    cache.kick_writeback();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cache.stop_writeback();
  ASSERT_TRUE(cache.sync_barrier().ok());
  EXPECT_GT(cache.stats().bg_writebacks, 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
}

// --- group commit --------------------------------------------------------------

TEST_F(StoreTest, GroupCommitAmortizesFsyncsAcrossConcurrentWriters) {
  const std::string path = img("ts_group.img");
  StoreConfig cfg;
  cfg.data_blocks = 64;
  cfg.journal_blocks = 512;
  cfg.journal.leader_wait_us = 1000;  // linger for stragglers
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());

  constexpr int kThreads = 8, kTxns = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&st, &failures, t] {
      std::uint8_t payload[256];
      for (int i = 0; i < kTxns; ++i) {
        std::memset(payload, t * 31 + i, sizeof(payload));
        JTxn txn = st.begin_txn();
        txn.append(1, std::uint32_t(t * 1000 + i), payload, sizeof(payload));
        if (!st.commit_txn(std::move(txn)).ok()) ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_EQ(failures.load(), 0);

  store::JournalStats js = st.journal()->stats();
  EXPECT_EQ(js.txns_committed, std::uint64_t(kThreads * kTxns));
  EXPECT_LT(js.commit_units, js.txns_committed);
  EXPECT_GE(js.max_batch_txns, 2u);
  // The bench enforces the >= 3x budget; the unit test just proves
  // amortization happens at all (per-update mode is exactly 1.0).
  EXPECT_GE(js.txns_per_flush(), 2.0);
  st.close();
}

TEST_F(StoreTest, PerUpdateModePaysOneFlushPerTransaction) {
  const std::string path = img("ts_perupd.img");
  StoreConfig cfg;
  cfg.data_blocks = 16;
  cfg.journal_blocks = 64;
  cfg.journal.group_commit = false;
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  std::uint8_t payload[64] = {9};
  for (int i = 0; i < 10; ++i) {
    JTxn txn = st.begin_txn();
    txn.append(1, std::uint32_t(i), payload, sizeof(payload));
    ASSERT_TRUE(st.commit_txn(std::move(txn)).ok());
  }
  store::JournalStats js = st.journal()->stats();
  EXPECT_EQ(js.txns_committed, 10u);
  EXPECT_EQ(js.commit_units, 10u);
  EXPECT_DOUBLE_EQ(js.txns_per_flush(), 1.0);
  st.close();
}

// --- checkpoint + recovery ------------------------------------------------------

TEST_F(StoreTest, JournalFullTriggersCheckpointAndRetrySucceeds) {
  const std::string path = img("ts_enospc.img");
  StoreConfig cfg;
  cfg.data_blocks = 8;
  cfg.journal_blocks = 1;  // 4 KiB region: a few 1 KiB txns fill it
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  std::vector<std::uint8_t> payload(1024, 0xCD);
  for (int i = 0; i < 12; ++i) {
    JTxn txn = st.begin_txn();
    txn.append(2, std::uint32_t(i), payload.data(), payload.size());
    ASSERT_TRUE(st.commit_txn(std::move(txn)).ok()) << "txn " << i;
  }
  EXPECT_GE(st.stats().checkpoints, 1u);
  EXPECT_GT(st.stable_seq(), 0u);
  st.close();
}

TEST_F(StoreTest, RecoveryReplaysCommittedPrefixAndStopsAtTornUnit) {
  const std::string path = img("ts_prefix.img");
  StoreConfig cfg;
  cfg.data_blocks = 8;
  cfg.journal_blocks = 16;
  std::uint64_t tail_after_2 = 0;
  {
    Store st;
    ASSERT_TRUE(st.open(path, cfg).ok());
    for (int i = 0; i < 3; ++i) {
      std::uint8_t payload[128];
      std::memset(payload, 0x40 + i, sizeof(payload));
      JTxn txn = st.begin_txn();
      txn.append(1, std::uint32_t(100 + i), payload, sizeof(payload));
      ASSERT_TRUE(st.commit_txn(std::move(txn)).ok());
      if (i == 1) tail_after_2 = st.journal()->tail_bytes();
    }
    // Smash unit 3's header in place: the torn unit ends the usable log.
    ASSERT_TRUE(
        st.image()
            .corrupt_bytes(st.journal_region_off() + tail_after_2, 16)
            .ok());
    st.close();  // no checkpoint: stable_seq stays 0
  }
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  std::vector<std::uint32_t> targets;
  Store::RecoveryReport rep = st.recover(
      [&targets](const store::JRecord& r, std::uint64_t) {
        targets.push_back(r.target);
      });
  EXPECT_TRUE(rep.superblock_ok);
  EXPECT_EQ(rep.stable_seq, 0u);
  EXPECT_EQ(rep.scan.units_applied, 2u);
  EXPECT_TRUE(rep.scan.torn);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 100u);
  EXPECT_EQ(targets[1], 101u);
  st.close();
}

TEST_F(StoreTest, SuperblockSurvivesTornSlotViaDualSlotAlternation) {
  const std::string path = img("ts_sb.img");
  StoreConfig cfg;
  cfg.data_blocks = 8;
  cfg.journal_blocks = 16;
  std::uint64_t stable_before = 0;
  {
    Store st;
    ASSERT_TRUE(st.open(path, cfg).ok());
    std::uint8_t payload[64] = {7};
    JTxn txn = st.begin_txn();
    txn.append(1, 55, payload, sizeof(payload));
    ASSERT_TRUE(st.commit_txn(std::move(txn)).ok());
    ASSERT_TRUE(st.checkpoint().ok());
    stable_before = st.stable_seq();
    ASSERT_GT(stable_before, 0u);
    // White-box: the format write took slot B, the checkpoint slot A
    // (slots alternate with the superblock generation), so the NEWEST
    // state sits in slot A at offset 0. Tear it.
    ASSERT_TRUE(st.image().corrupt_bytes(0, 32).ok());
    st.close();
  }
  // Reopen: slot A is garbage, slot B (the older generation) must be
  // adopted -- and the journal scan re-finds the committed unit the torn
  // checkpoint had already absorbed.
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  EXPECT_LT(st.stable_seq(), stable_before);
  std::vector<std::uint32_t> targets;
  Store::RecoveryReport rep = st.recover(
      [&targets](const store::JRecord& r, std::uint64_t) {
        targets.push_back(r.target);
      });
  EXPECT_TRUE(rep.superblock_ok);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 55u);
  st.close();
}

// --- kfail store.* sites --------------------------------------------------------

TEST_F(StoreTest, ShortWriteSiteFailsBlockWriteWithEio) {
  const std::string path = img("ts_shortw.img");
  BackingImage im;
  ASSERT_TRUE(im.open(path, 4).ok());
  fault::SiteConfig c;
  c.p = 1.0;
  c.budget = 1;
  fault::kfail().arm(fault::Site::kStoreShortWrite, c);
  Result<void> r = im.write_block(1, pattern(1).data());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEIO);
  EXPECT_EQ(im.stats().short_writes, 1u);
  fault::kfail().disarm_all();
  ASSERT_TRUE(im.write_block(1, pattern(1).data()).ok());
}

TEST_F(StoreTest, FsyncFailSiteSurfacesEioAndRetryWorks) {
  const std::string path = img("ts_fsyncf.img");
  BackingImage im;
  ASSERT_TRUE(im.open(path, 4).ok());
  ASSERT_TRUE(im.write_block(0, pattern(9).data()).ok());
  fault::SiteConfig c;
  c.p = 1.0;
  c.budget = 1;
  fault::kfail().arm(fault::Site::kStoreFsyncFail, c);
  Result<void> r = im.flush();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEIO);
  EXPECT_GE(im.stats().fsync_failures, 1u);
  fault::kfail().disarm_all();
  ASSERT_TRUE(im.flush().ok());
}

TEST_F(StoreTest, TornCommitHeaderIsSilentUntilRecovery) {
  const std::string path = img("ts_torn.img");
  StoreConfig cfg;
  cfg.data_blocks = 8;
  cfg.journal_blocks = 16;
  {
    Store st;
    ASSERT_TRUE(st.open(path, cfg).ok());
    std::uint8_t payload[64] = {1};
    JTxn ok_txn = st.begin_txn();
    ok_txn.append(1, 1, payload, sizeof(payload));
    ASSERT_TRUE(st.commit_txn(std::move(ok_txn)).ok());

    fault::SiteConfig c;
    c.p = 1.0;
    c.budget = 1;
    fault::kfail().arm(fault::Site::kStoreTornHeader, c);
    JTxn torn_txn = st.begin_txn();
    torn_txn.append(1, 2, payload, sizeof(payload));
    // SILENT: the commit is acked -- the tear only shows at recovery,
    // exactly like a lying disk.
    ASSERT_TRUE(st.commit_txn(std::move(torn_txn)).ok());
    fault::kfail().disarm_all();
    EXPECT_EQ(st.journal()->stats().torn_headers, 1u);
    st.close();
  }
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  std::vector<std::uint32_t> targets;
  Store::RecoveryReport rep = st.recover(
      [&targets](const store::JRecord& r, std::uint64_t) {
        targets.push_back(r.target);
      });
  // Unit 1 survives; the torn unit 2 is the discarded tail.
  EXPECT_EQ(rep.scan.units_applied, 1u);
  EXPECT_TRUE(rep.scan.torn);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 1u);
  st.close();
}

// --- JournalFs bridge -----------------------------------------------------------

TEST_F(StoreTest, JournalFsSurvivesRemountFromBackingImage) {
  const std::string path = img("ts_jfs.img");
  StoreConfig cfg;
  cfg.data_blocks = 192;  // >= inode table (2) + bitmap (1) + 128 fs blocks
  cfg.journal_blocks = 64;
  auto bytes = [](const std::string& s) {
    std::vector<std::byte> v(s.size());
    std::memcpy(v.data(), s.data(), s.size());
    return v;
  };
  const std::vector<std::byte> body1 =
      bytes("persistent contents of file one");
  const std::vector<std::byte> body2 =
      bytes(std::string(5000, 'z'));  // spills into an indirect block
  {
    blockdev::Disk disk(4096);
    blockdev::BufferCache cache(disk, 256);
    Store st;
    ASSERT_TRUE(st.open(path, cfg).ok());
    fs::JournalFs<fs::RawPtrPolicy> jfs(64, 128, 512, 8);
    ASSERT_TRUE(jfs.attach_store(&st, &cache).ok());
    ASSERT_TRUE(jfs.store_attached());

    auto f1 = jfs.create(jfs.root(), "one", fs::FileType::kRegular, 0644);
    ASSERT_TRUE(f1.ok());
    ASSERT_TRUE(jfs.write(f1.value(), 0, body1).ok());
    ASSERT_TRUE(jfs.fsync(f1.value(), false).ok());

    auto f2 = jfs.create(jfs.root(), "two", fs::FileType::kRegular, 0644);
    ASSERT_TRUE(f2.ok());
    ASSERT_TRUE(jfs.write(f2.value(), 0, body2).ok());
    ASSERT_TRUE(jfs.fsync(f2.value(), false).ok());
    EXPECT_GT(jfs.jstats().store_commits, 0u);
    EXPECT_GT(jfs.jstats().store_home_writes, 0u);
    st.close();  // kill -9 analogue: no unmount-time checkpoint
  }
  {
    blockdev::Disk disk(4096);
    blockdev::BufferCache cache(disk, 256);
    Store st;
    ASSERT_TRUE(st.open(path, cfg).ok());
    fs::JournalFs<fs::RawPtrPolicy> jfs(64, 128, 512, 8);
    ASSERT_TRUE(jfs.attach_store(&st, &cache).ok());

    auto f1 = jfs.lookup(jfs.root(), "one");
    ASSERT_TRUE(f1.ok());
    std::vector<std::byte> out1(body1.size());
    ASSERT_TRUE(jfs.read(f1.value(), 0, out1).ok());
    EXPECT_EQ(out1, body1);

    auto f2 = jfs.lookup(jfs.root(), "two");
    ASSERT_TRUE(f2.ok());
    std::vector<std::byte> out2(body2.size());
    ASSERT_TRUE(jfs.read(f2.value(), 0, out2).ok());
    EXPECT_EQ(out2, body2);

    auto fsck = jfs.fsck();
    EXPECT_TRUE(fsck.clean) << (fsck.problems.empty() ? ""
                                                      : fsck.problems[0]);
    st.close();
  }
}

// --- supervisor dirty-page budget ----------------------------------------------

TEST_F(StoreTest, DirtyQuotaRejectsThirdDirtyPageWithEdquot) {
  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  rootfs.set_cost_hook(kernel.charge_hook());
  sup::Supervisor s(kernel);
  sup::Quota q;
  q.invocation_dirty = 2;
  sup::ExtId id = s.register_extension("dirty-hog", sup::Vehicle::kCosy, q);

  blockdev::Disk disk(64);
  blockdev::BufferCache cache(disk, 16);
  TestBackend be(64);
  cache.set_backend(&be);

  {
    sup::InvocationGuard g(s, id, nullptr, sup::Route::kKernel);
    ASSERT_TRUE(cache.write_data(0, pattern(0).data()).ok());
    ASSERT_TRUE(cache.write_data(1, pattern(1).data()).ok());
    Result<void> r = cache.write_data(2, pattern(2).data());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), Errno::kEDQUOT);
    g.set_result(sysret_err(Errno::kEDQUOT));
  }
  EXPECT_EQ(cache.stats().gate_rejects, 1u);
  EXPECT_EQ(cache.dirty_count(), 2u);  // the reject left no trace
  EXPECT_GE(s.stats(id).quota_overruns, 1u);

  // Re-dirtying an ALREADY dirty block is free (no clean->dirty edge)...
  {
    sup::InvocationGuard g(s, id, nullptr, sup::Route::kKernel);
    ASSERT_TRUE(cache.write_data(0, pattern(7).data()).ok());
    ASSERT_TRUE(cache.write_data(1, pattern(8).data()).ok());
  }
  // ...and the fallback route is exempt: degraded work must not be
  // starved by the budget that quarantined the fast path.
  {
    sup::InvocationGuard g(s, id, nullptr, sup::Route::kFallback);
    ASSERT_TRUE(cache.write_data(2, pattern(2).data()).ok());
    ASSERT_TRUE(cache.write_data(3, pattern(3).data()).ok());
    ASSERT_TRUE(cache.write_data(4, pattern(4).data()).ok());
  }
  ASSERT_TRUE(cache.sync_barrier().ok());
}

// --- /proc + kmetrics -----------------------------------------------------------

TEST_F(StoreTest, ProcFilesRenderCacheAndStoreCounters) {
  const std::string path = img("ts_proc.img");
  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  rootfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "store-proc");

  blockdev::Disk disk(64);
  blockdev::BufferCache cache(disk, 16);
  TestBackend be(64);
  cache.set_backend(&be);
  StoreConfig cfg;
  cfg.data_blocks = 16;
  cfg.journal_blocks = 8;
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  uk::register_storage_proc(kernel.mount_procfs(), &st, &cache);

  ASSERT_TRUE(cache.write_data(5, pattern(5).data()).ok());
  std::vector<std::uint8_t> rb(store::kBlockBytes);
  ASSERT_TRUE(cache.read_data(5, rb.data()).ok());
  std::uint8_t payload[32] = {3};
  JTxn txn = st.begin_txn();
  txn.append(1, 9, payload, sizeof(payload));
  ASSERT_TRUE(st.commit_txn(std::move(txn)).ok());
  ASSERT_TRUE(st.checkpoint().ok());

  auto cat = [&proc](const char* p) {
    int fd = proc.open(p, fs::kORdOnly);
    if (fd < 0) return std::string();
    std::string out;
    char buf[256];
    for (;;) {
      SysRet n = proc.read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    proc.close(fd);
    return out;
  };

  const std::string cachef = cat("/proc/blockdev/cache");
  EXPECT_NE(cachef.find("hits"), std::string::npos);
  EXPECT_NE(cachef.find("dirty"), std::string::npos);
  EXPECT_NE(cachef.find("hit_rate_pct"), std::string::npos);

  const std::string statsf = cat("/proc/store/stats");
  EXPECT_NE(statsf.find("checkpoints 1"), std::string::npos);
  EXPECT_NE(statsf.find("stable_seq"), std::string::npos);
  EXPECT_NE(statsf.find("image_fsyncs"), std::string::npos);

  const std::string journalf = cat("/proc/store/journal");
  EXPECT_NE(journalf.find("txns_committed 1"), std::string::npos);
  EXPECT_NE(journalf.find("commit_units 1"), std::string::npos);

  const std::string metrics = metrics::kmetrics().expose();
  EXPECT_NE(metrics.find("usk_cache_hits"), std::string::npos);
  EXPECT_NE(metrics.find("usk_cache_dirty_blocks"), std::string::npos);
  EXPECT_NE(metrics.find("usk_store_checkpoints"), std::string::npos);
  EXPECT_NE(metrics.find("usk_journal_commit_units"), std::string::npos);
  st.close();
}

}  // namespace
}  // namespace usk
