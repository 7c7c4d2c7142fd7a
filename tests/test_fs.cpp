// Tests for the VFS stack: MemFs semantics, the dcache (with dcache_lock
// instrumentation), path resolution, fd tables, and the stackable WrapFs
// with its pluggable allocator.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "fs/dcache.hpp"
#include "fs/memfs.hpp"
#include "fs/vfs.hpp"
#include "fs/wrapfs.hpp"
#include "mm/kmalloc.hpp"
#include "numbered.hpp"

namespace usk::fs {
namespace {

std::span<const std::byte> bytes(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

// --- MemFs -------------------------------------------------------------------------

class MemFsTest : public ::testing::Test {
 protected:
  MemFs fs_;
};

TEST_F(MemFsTest, CreateLookup) {
  auto ino = fs_.create(fs_.root(), "hello", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  auto found = fs_.lookup(fs_.root(), "hello");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), ino.value());
  EXPECT_EQ(fs_.lookup(fs_.root(), "absent").error(), Errno::kENOENT);
}

TEST_F(MemFsTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs_.create(fs_.root(), "x", FileType::kRegular, 0644).ok());
  EXPECT_EQ(fs_.create(fs_.root(), "x", FileType::kRegular, 0644).error(),
            Errno::kEEXIST);
}

TEST_F(MemFsTest, NameValidation) {
  EXPECT_EQ(fs_.create(fs_.root(), "", FileType::kRegular, 0644).error(),
            Errno::kENAMETOOLONG);
  EXPECT_EQ(fs_.create(fs_.root(), std::string(300, 'a'), FileType::kRegular,
                       0644).error(),
            Errno::kENAMETOOLONG);
  EXPECT_EQ(fs_.create(fs_.root(), "a/b", FileType::kRegular, 0644).error(),
            Errno::kEINVAL);
}

TEST_F(MemFsTest, WriteReadRoundTrip) {
  auto ino = fs_.create(fs_.root(), "f", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  auto w = fs_.write(ino.value(), 0, bytes("hello world"));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), 11u);
  std::byte buf[32];
  auto r = fs_.read(ino.value(), 6, std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5u);
  EXPECT_EQ(std::memcmp(buf, "world", 5), 0);
}

TEST_F(MemFsTest, SparseWriteZeroFills) {
  auto ino = fs_.create(fs_.root(), "sparse", FileType::kRegular, 0644);
  ASSERT_TRUE(fs_.write(ino.value(), 100, bytes("x")).ok());
  std::byte buf[101];
  auto r = fs_.read(ino.value(), 0, std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 101u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(buf[i], std::byte{0});
  EXPECT_EQ(buf[100], static_cast<std::byte>('x'));
}

TEST_F(MemFsTest, ReadPastEofReturnsZero) {
  auto ino = fs_.create(fs_.root(), "f", FileType::kRegular, 0644);
  ASSERT_TRUE(fs_.write(ino.value(), 0, bytes("abc")).ok());
  std::byte buf[8];
  auto r = fs_.read(ino.value(), 10, std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u);
}

TEST_F(MemFsTest, GetattrReportsSizeAndTimes) {
  auto ino = fs_.create(fs_.root(), "f", FileType::kRegular, 0640);
  ASSERT_TRUE(fs_.write(ino.value(), 0, bytes("12345")).ok());
  StatBuf st;
  ASSERT_EQ(fs_.getattr(ino.value(), &st), Errno::kOk);
  EXPECT_EQ(st.size, 5u);
  EXPECT_EQ(st.mode, 0640u);
  EXPECT_EQ(st.type, FileType::kRegular);
  EXPECT_GT(st.mtime, 0u);
}

TEST_F(MemFsTest, UnlinkRemovesAndRejectsDirs) {
  auto f = fs_.create(fs_.root(), "f", FileType::kRegular, 0644);
  auto d = fs_.create(fs_.root(), "d", FileType::kDirectory, 0755);
  ASSERT_TRUE(f.ok() && d.ok());
  EXPECT_EQ(fs_.unlink(fs_.root(), "d"), Errno::kEISDIR);
  EXPECT_EQ(fs_.unlink(fs_.root(), "f"), Errno::kOk);
  EXPECT_EQ(fs_.unlink(fs_.root(), "f"), Errno::kENOENT);
}

TEST_F(MemFsTest, RmdirRequiresEmpty) {
  auto d = fs_.create(fs_.root(), "d", FileType::kDirectory, 0755);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs_.create(d.value(), "child", FileType::kRegular, 0644).ok());
  EXPECT_EQ(fs_.rmdir(fs_.root(), "d"), Errno::kENOTEMPTY);
  EXPECT_EQ(fs_.unlink(d.value(), "child"), Errno::kOk);
  EXPECT_EQ(fs_.rmdir(fs_.root(), "d"), Errno::kOk);
}

TEST_F(MemFsTest, RenameMovesAndReplaces) {
  auto a = fs_.create(fs_.root(), "a", FileType::kRegular, 0644);
  auto b = fs_.create(fs_.root(), "b", FileType::kRegular, 0644);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(fs_.write(a.value(), 0, bytes("from-a")).ok());
  EXPECT_EQ(fs_.rename(fs_.root(), "a", fs_.root(), "b"), Errno::kOk);
  EXPECT_EQ(fs_.lookup(fs_.root(), "a").error(), Errno::kENOENT);
  auto moved = fs_.lookup(fs_.root(), "b");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), a.value());
}

TEST_F(MemFsTest, RenameAcrossDirectories) {
  auto d1 = fs_.create(fs_.root(), "d1", FileType::kDirectory, 0755);
  auto d2 = fs_.create(fs_.root(), "d2", FileType::kDirectory, 0755);
  auto f = fs_.create(d1.value(), "f", FileType::kRegular, 0644);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(fs_.rename(d1.value(), "f", d2.value(), "g"), Errno::kOk);
  EXPECT_TRUE(fs_.lookup(d2.value(), "g").ok());
  EXPECT_FALSE(fs_.lookup(d1.value(), "f").ok());
}

TEST_F(MemFsTest, TruncateGrowsAndShrinks) {
  auto ino = fs_.create(fs_.root(), "t", FileType::kRegular, 0644);
  ASSERT_TRUE(fs_.write(ino.value(), 0, bytes("hello")).ok());
  EXPECT_EQ(fs_.truncate(ino.value(), 2), Errno::kOk);
  StatBuf st;
  fs_.getattr(ino.value(), &st);
  EXPECT_EQ(st.size, 2u);
  EXPECT_EQ(fs_.truncate(ino.value(), 100), Errno::kOk);
  fs_.getattr(ino.value(), &st);
  EXPECT_EQ(st.size, 100u);
}

TEST_F(MemFsTest, HardLinksShareData) {
  auto f = fs_.create(fs_.root(), "orig", FileType::kRegular, 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs_.write(f.value(), 0, bytes("shared-bytes")).ok());
  ASSERT_EQ(fs_.link(fs_.root(), "alias", f.value()), Errno::kOk);

  auto alias = fs_.lookup(fs_.root(), "alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias.value(), f.value());  // same inode
  StatBuf st;
  ASSERT_EQ(fs_.getattr(f.value(), &st), Errno::kOk);
  EXPECT_EQ(st.nlink, 2u);

  // Writes through one name are visible through the other.
  ASSERT_TRUE(fs_.write(alias.value(), 0, bytes("SHARED")).ok());
  std::byte buf[12];
  auto r = fs_.read(f.value(), 0, std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::memcmp(buf, "SHARED-bytes", 12), 0);

  // Unlinking one name keeps the data alive; the second frees it.
  ASSERT_EQ(fs_.unlink(fs_.root(), "orig"), Errno::kOk);
  ASSERT_TRUE(fs_.lookup(fs_.root(), "alias").ok());
  fs_.getattr(alias.value(), &st);
  EXPECT_EQ(st.nlink, 1u);
  ASSERT_EQ(fs_.unlink(fs_.root(), "alias"), Errno::kOk);
  EXPECT_EQ(fs_.getattr(alias.value(), &st), Errno::kENOENT);
}

TEST_F(MemFsTest, LinkRejectsDirectoriesAndDuplicates) {
  auto d = fs_.create(fs_.root(), "dir", FileType::kDirectory, 0755);
  auto f = fs_.create(fs_.root(), "f", FileType::kRegular, 0644);
  ASSERT_TRUE(d.ok() && f.ok());
  EXPECT_EQ(fs_.link(fs_.root(), "dlink", d.value()), Errno::kEPERM);
  EXPECT_EQ(fs_.link(fs_.root(), "f", f.value()), Errno::kEEXIST);
  EXPECT_EQ(fs_.link(fs_.root(), "x", 9999), Errno::kENOENT);
}

TEST_F(MemFsTest, ChmodChangesMode) {
  auto f = fs_.create(fs_.root(), "m", FileType::kRegular, 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs_.chmod(f.value(), 0400), Errno::kOk);
  StatBuf st;
  ASSERT_EQ(fs_.getattr(f.value(), &st), Errno::kOk);
  EXPECT_EQ(st.mode, 0400u);
  EXPECT_EQ(fs_.chmod(8888, 0777), Errno::kENOENT);
}

TEST_F(MemFsTest, ReaddirSortedAndComplete) {
  fs_.create(fs_.root(), "b", FileType::kRegular, 0644);
  fs_.create(fs_.root(), "a", FileType::kRegular, 0644);
  fs_.create(fs_.root(), "c", FileType::kDirectory, 0755);
  auto entries = fs_.readdir(fs_.root());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 3u);
  EXPECT_EQ(entries.value()[0].name, "a");
  EXPECT_EQ(entries.value()[1].name, "b");
  EXPECT_EQ(entries.value()[2].name, "c");
  EXPECT_EQ(entries.value()[2].type, FileType::kDirectory);
}

TEST_F(MemFsTest, ReaddirWindowMatchesFullListing) {
  for (int i = 0; i < 25; ++i) {
    fs_.create(fs_.root(), testutil::numbered("f", i), FileType::kRegular,
               0644);
  }
  auto all = fs_.readdir(fs_.root());
  ASSERT_TRUE(all.ok());
  std::vector<DirEntry> stitched;
  std::size_t pos = 0;
  for (;;) {
    auto win = fs_.readdir_window(fs_.root(), pos, 7);
    ASSERT_TRUE(win.ok());
    if (win.value().empty()) break;
    for (auto& e : win.value()) stitched.push_back(e);
    pos += win.value().size();
  }
  ASSERT_EQ(stitched.size(), all.value().size());
  for (std::size_t i = 0; i < stitched.size(); ++i) {
    EXPECT_EQ(stitched[i].name, all.value()[i].name);
  }
}

TEST_F(MemFsTest, CostHookCharged) {
  std::uint64_t charged = 0;
  fs_.set_cost_hook([&](std::uint64_t u) { charged += u; });
  auto ino = fs_.create(fs_.root(), "c", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  std::uint64_t after_create = charged;
  EXPECT_GT(after_create, 0u);
  std::vector<std::byte> big(64 * 1024, std::byte{1});
  ASSERT_TRUE(fs_.write(ino.value(), 0, big).ok());
  // Data ops charge proportionally to size.
  EXPECT_GT(charged - after_create, after_create);
}

// --- Dcache -------------------------------------------------------------------------

TEST(DcacheTest, InsertLookupInvalidate) {
  Dcache dc(64);
  EXPECT_EQ(dc.lookup(1, "a"), kInvalidInode);
  dc.insert(1, "a", 100);
  EXPECT_EQ(dc.lookup(1, "a"), 100u);
  EXPECT_EQ(dc.lookup(2, "a"), kInvalidInode);  // keyed by parent too
  dc.invalidate(1, "a");
  EXPECT_EQ(dc.lookup(1, "a"), kInvalidInode);
}

TEST(DcacheTest, LruEviction) {
  Dcache dc(3, 1);  // 1 shard: strict global LRU, the seed's semantics
  dc.insert(1, "a", 10);
  dc.insert(1, "b", 11);
  dc.insert(1, "c", 12);
  dc.lookup(1, "a");        // refresh a
  dc.insert(1, "d", 13);    // evicts b (LRU)
  EXPECT_EQ(dc.lookup(1, "a"), 10u);
  EXPECT_EQ(dc.lookup(1, "b"), kInvalidInode);
  EXPECT_EQ(dc.lookup(1, "d"), 13u);
  EXPECT_EQ(dc.stats().evictions, 1u);
}

TEST(DcacheTest, InvalidateDirDropsAllChildren) {
  Dcache dc(64);
  dc.insert(5, "x", 1);
  dc.insert(5, "y", 2);
  dc.insert(6, "z", 3);
  dc.invalidate_dir(5);
  EXPECT_EQ(dc.lookup(5, "x"), kInvalidInode);
  EXPECT_EQ(dc.lookup(5, "y"), kInvalidInode);
  EXPECT_EQ(dc.lookup(6, "z"), 3u);
}

TEST(DcacheTest, LockAcquisitionsCounted) {
  Dcache dc(64, 1);  // 1 shard: every op takes the one global dcache_lock
  std::uint64_t before = dc.lock().acquisitions();
  dc.insert(1, "a", 2);
  dc.lookup(1, "a");
  dc.invalidate(1, "a");
  EXPECT_EQ(dc.lock().acquisitions(), before + 3);
  EXPECT_EQ(dc.lock().name(), "dcache_lock");
}

TEST(DcacheTest, ShardedLockAcquisitionsAggregated) {
  Dcache dc(64, 8);
  std::uint64_t before = dc.lock_acquisitions();
  dc.insert(1, "a", 2);
  dc.lookup(1, "a");
  dc.invalidate(1, "a");
  // Each op acquires exactly one shard lock, whichever shard "a" maps to.
  EXPECT_EQ(dc.lock_acquisitions(), before + 3);
}

/// The shard `name` under `parent` lands in: the one whose size grows when
/// it is inserted into an empty cache of `shards` shards.
std::size_t shard_of(std::size_t shards, InodeNum parent,
                     std::string_view name, std::uint32_t fs_id = 0) {
  Dcache probe(shards * 8, shards);
  probe.insert(parent, name, 1, fs_id);
  for (std::size_t s = 0; s < shards; ++s) {
    if (probe.shard_size(s) == 1) return s;
  }
  ADD_FAILURE() << "no shard holds " << name;
  return 0;
}

/// `count` names under parent 1 that share one shard of a `shards`-shard
/// cache.
std::vector<std::string> names_in_one_shard(std::size_t shards,
                                            std::size_t count) {
  std::vector<std::string> names;
  const std::size_t target = shard_of(shards, 1, "n0");
  for (int i = 0; names.size() < count; ++i) {
    std::string n = testutil::numbered("n", i);
    if (shard_of(shards, 1, n) == target) names.push_back(std::move(n));
  }
  return names;
}

class DcacheLruTest : public ::testing::TestWithParam<std::size_t> {};

// A hit moves the entry to the front of its shard's LRU, so the next
// eviction takes a different victim than it would have without the hit.
TEST_P(DcacheLruTest, HitMovesTheEntryToTheFront) {
  const std::size_t shards = GetParam();
  const std::vector<std::string> n = names_in_one_shard(shards, 3);
  for (bool hit : {false, true}) {
    Dcache dc(2 * shards, shards);  // two entries per shard
    dc.insert(1, n[0], 10);
    dc.insert(1, n[1], 11);
    if (hit) {
      EXPECT_EQ(dc.lookup(1, n[0]), 10u);
    }
    dc.insert(1, n[2], 12);  // the shard is full: one entry goes
    EXPECT_EQ(dc.stats().evictions, 1u);
    EXPECT_EQ(dc.lookup(1, n[2]), 12u);
    // Without the hit the oldest (n0) goes; after it, n1 is the oldest.
    EXPECT_EQ(dc.lookup(1, n[0]), hit ? 10u : kInvalidInode) << "hit " << hit;
    EXPECT_EQ(dc.lookup(1, n[1]), hit ? kInvalidInode : 11u) << "hit " << hit;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DcacheLruTest,
                         ::testing::Values(std::size_t{1},
                                           Dcache::kDefaultShards));

// Names past std::string's inline capacity round-trip through a borrowed
// probe: lookups and invalidations compare the bytes, not the buffer.
TEST(DcacheTest, LongNamesRoundTrip) {
  Dcache dc(64);
  for (std::size_t len : {16u, 64u, 255u}) {
    const std::string name(len, 'k');
    dc.insert(7, name, 1000 + len);
    const std::string copy = name;  // another buffer, the same bytes
    EXPECT_EQ(dc.lookup(7, copy), 1000 + len) << len;
    std::string other = name;
    other.back() = 'x';
    EXPECT_EQ(dc.lookup(7, other), kInvalidInode) << len;
    EXPECT_EQ(dc.lookup(7, std::string_view(name).substr(0, len - 1)),
              kInvalidInode)
        << len;
    EXPECT_EQ(dc.lookup(8, name), kInvalidInode) << len;
    EXPECT_EQ(dc.lookup(7, name, /*fs_id=*/1), kInvalidInode) << len;
    dc.invalidate(7, copy);
    EXPECT_EQ(dc.lookup(7, name), kInvalidInode) << len;
  }
  EXPECT_EQ(dc.size(), 0u);
}

// A key's shard is the hash of its owned name, parent and fs id, whether
// a lookup borrows the name or not.
TEST(DcacheTest, ShardIsTheHashOfTheFullKey) {
  constexpr std::size_t kShards = Dcache::kDefaultShards;
  for (std::string_view name :
       {std::string_view("a"), std::string_view("postmark-file-0042"),
        std::string_view("a-leaf-name-past-the-sso-limit-36")}) {
    for (InodeNum parent : {InodeNum{1}, InodeNum{77}}) {
      for (std::uint32_t fs_id : {0u, 3u}) {
        const std::size_t h =
            std::hash<std::string>()(std::string(name)) ^
            (std::hash<InodeNum>()(parent) * 0x9E3779B97F4A7C15ull) ^
            (static_cast<std::size_t>(fs_id) << 17);
        EXPECT_EQ(shard_of(kShards, parent, name, fs_id), h % kShards)
            << name << " parent " << parent << " fs " << fs_id;
      }
    }
  }
}

// invalidate_dir drops every child even after hits relinked their LRU
// nodes, and the LRU stays in step with the map for later evictions.
TEST(DcacheTest, InvalidateDirAfterSplicedTouches) {
  Dcache dc(8, 1);
  for (int i = 0; i < 4; ++i) dc.insert(5, testutil::numbered("x", i), i);
  dc.insert(6, "keep", 99);
  EXPECT_EQ(dc.lookup(5, "x0"), 0u);
  EXPECT_EQ(dc.lookup(5, "x2"), 2u);
  EXPECT_EQ(dc.lookup(6, "keep"), 99u);
  dc.invalidate_dir(5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dc.lookup(5, testutil::numbered("x", i)), kInvalidInode) << i;
  }
  EXPECT_EQ(dc.size(), 1u);
  // Fill past capacity: "keep" is the oldest entry left, so it goes first.
  for (int i = 0; i < 8; ++i) dc.insert(9, testutil::numbered("y", i), i);
  EXPECT_EQ(dc.size(), 8u);
  EXPECT_EQ(dc.stats().evictions, 1u);
  EXPECT_EQ(dc.lookup(6, "keep"), kInvalidInode);
  EXPECT_EQ(dc.lookup(9, "y0"), 0u);
}

// --- Vfs ---------------------------------------------------------------------------------

class VfsTest : public ::testing::Test {
 protected:
  VfsTest() : vfs_(fs_) {}

  MemFs fs_;
  Vfs vfs_;
  FdTable fds_;
};

TEST_F(VfsTest, OpenCreateWriteReadClose) {
  auto fd = vfs_.open(fds_, "/f.txt", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  auto w = vfs_.write(fds_, fd.value(), bytes("data!"));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(vfs_.close(fds_, fd.value()), Errno::kOk);

  auto rfd = vfs_.open(fds_, "/f.txt", kORdOnly, 0);
  ASSERT_TRUE(rfd.ok());
  std::byte buf[16];
  auto r = vfs_.read(fds_, rfd.value(), std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5u);
  vfs_.close(fds_, rfd.value());
}

TEST_F(VfsTest, NestedPathResolution) {
  ASSERT_EQ(vfs_.mkdir("/a", 0755), Errno::kOk);
  ASSERT_EQ(vfs_.mkdir("/a/b", 0755), Errno::kOk);
  auto fd = vfs_.open(fds_, "/a/b/c.txt", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.close(fds_, fd.value());
  StatBuf st;
  EXPECT_EQ(vfs_.stat("/a/b/c.txt", &st), Errno::kOk);
  EXPECT_EQ(vfs_.stat("/a/b", &st), Errno::kOk);
  EXPECT_EQ(st.type, FileType::kDirectory);
  EXPECT_EQ(vfs_.stat("/a/missing/c", &st), Errno::kENOENT);
}

TEST_F(VfsTest, DcacheAcceleratesRepeatedResolution) {
  ASSERT_EQ(vfs_.mkdir("/dir", 0755), Errno::kOk);
  auto fd = vfs_.open(fds_, "/dir/f", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.close(fds_, fd.value());
  std::uint64_t fs_lookups_before = fs_.stats().lookups;
  StatBuf st;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(vfs_.stat("/dir/f", &st), Errno::kOk);
  }
  // All 20 component steps should hit the dcache, not the filesystem.
  EXPECT_EQ(fs_.stats().lookups, fs_lookups_before);
  EXPECT_GE(vfs_.dcache().stats().hits, 20u);
}

TEST_F(VfsTest, UnlinkInvalidatesDcache) {
  auto fd = vfs_.open(fds_, "/gone", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.close(fds_, fd.value());
  StatBuf st;
  ASSERT_EQ(vfs_.stat("/gone", &st), Errno::kOk);
  ASSERT_EQ(vfs_.unlink("/gone"), Errno::kOk);
  EXPECT_EQ(vfs_.stat("/gone", &st), Errno::kENOENT);
}

TEST_F(VfsTest, LseekWhence) {
  auto fd = vfs_.open(fds_, "/s", kORdWr | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(vfs_.write(fds_, fd.value(), bytes("0123456789")).ok());
  EXPECT_EQ(vfs_.lseek(fds_, fd.value(), 2, kSeekSet).value(), 2u);
  EXPECT_EQ(vfs_.lseek(fds_, fd.value(), 3, kSeekCur).value(), 5u);
  EXPECT_EQ(vfs_.lseek(fds_, fd.value(), -1, kSeekEnd).value(), 9u);
  EXPECT_FALSE(vfs_.lseek(fds_, fd.value(), -100, kSeekSet).ok());
  std::byte b;
  auto r = vfs_.read(fds_, fd.value(), std::span(&b, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(b, static_cast<std::byte>('9'));
}

TEST_F(VfsTest, AppendModeSeeksToEnd) {
  auto fd = vfs_.open(fds_, "/log", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.write(fds_, fd.value(), bytes("aaa"));
  vfs_.close(fds_, fd.value());
  auto afd = vfs_.open(fds_, "/log", kOWrOnly | kOAppend, 0);
  ASSERT_TRUE(afd.ok());
  vfs_.write(fds_, afd.value(), bytes("bbb"));
  vfs_.close(fds_, afd.value());
  StatBuf st;
  vfs_.stat("/log", &st);
  EXPECT_EQ(st.size, 6u);
}

TEST_F(VfsTest, OTruncEmptiesFile) {
  auto fd = vfs_.open(fds_, "/t", kOWrOnly | kOCreat, 0644);
  vfs_.write(fds_, fd.value(), bytes("contents"));
  vfs_.close(fds_, fd.value());
  auto tfd = vfs_.open(fds_, "/t", kOWrOnly | kOTrunc, 0);
  ASSERT_TRUE(tfd.ok());
  vfs_.close(fds_, tfd.value());
  StatBuf st;
  vfs_.stat("/t", &st);
  EXPECT_EQ(st.size, 0u);
}

TEST_F(VfsTest, BadFdErrors) {
  std::byte b;
  EXPECT_EQ(vfs_.read(fds_, 99, std::span(&b, 1)).error(), Errno::kEBADF);
  EXPECT_EQ(vfs_.close(fds_, 99), Errno::kEBADF);
  // Write on a read-only fd.
  auto fd = vfs_.open(fds_, "/ro", kOWrOnly | kOCreat, 0644);
  vfs_.close(fds_, fd.value());
  auto rfd = vfs_.open(fds_, "/ro", kORdOnly, 0);
  EXPECT_EQ(vfs_.write(fds_, rfd.value(), bytes("x")).error(), Errno::kEBADF);
  vfs_.close(fds_, rfd.value());
}

// --- O_CREAT: one walk to the parent, then the leaf ---------------------------

TEST_F(VfsTest, CreateInAMissingDirectoryIsENOENT) {
  EXPECT_EQ(vfs_.open(fds_, "/nodir/f", kOWrOnly | kOCreat, 0644).error(),
            Errno::kENOENT);
  EXPECT_EQ(vfs_.open(fds_, "/nodir/sub/f", kOWrOnly | kOCreat, 0644).error(),
            Errno::kENOENT);
  EXPECT_EQ(vfs_.open(fds_, "/nodir/.", kOWrOnly | kOCreat, 0644).error(),
            Errno::kENOENT);
  EXPECT_EQ(fs_.stats().creates, 0u);
  EXPECT_EQ(vfs_.open(fds_, "", kOWrOnly | kOCreat, 0644).error(),
            Errno::kEINVAL);
}

TEST_F(VfsTest, CreateOnAnExistingFileNeitherFailsNorTruncates) {
  auto fd = vfs_.open(fds_, "/t", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(vfs_.write(fds_, fd.value(), bytes("contents")).ok());
  vfs_.close(fds_, fd.value());
  const std::uint64_t creates = fs_.stats().creates;

  auto again = vfs_.open(fds_, "/t", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(again.ok());
  vfs_.close(fds_, again.value());
  StatBuf st;
  ASSERT_EQ(vfs_.stat("/t", &st), Errno::kOk);
  EXPECT_EQ(st.size, 8u);

  auto trunc = vfs_.open(fds_, "/t", kOWrOnly | kOCreat | kOTrunc, 0644);
  ASSERT_TRUE(trunc.ok());
  vfs_.close(fds_, trunc.value());
  ASSERT_EQ(vfs_.stat("/t", &st), Errno::kOk);
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(fs_.stats().creates, creates);
}

TEST_F(VfsTest, CreateOnADirectoryIsEISDIR) {
  ASSERT_EQ(vfs_.mkdir("/dir", 0755), Errno::kOk);
  for (const char* path : {"/dir", "/dir/.", "/dir/", "/"}) {
    EXPECT_EQ(vfs_.open(fds_, path, kOWrOnly | kOCreat, 0644).error(),
              Errno::kEISDIR)
        << path;
  }
  auto rd = vfs_.open(fds_, "/dir/.", kORdOnly | kOCreat, 0644);
  ASSERT_TRUE(rd.ok());
  vfs_.close(fds_, rd.value());
  EXPECT_EQ(vfs_.open(fds_, "/dir/f/g", kOWrOnly | kOCreat, 0644).error(),
            Errno::kENOENT);
}

TEST_F(VfsTest, CreateThroughAMountPointUsesTheMountedFilesystem) {
  MemFs other;
  ASSERT_EQ(vfs_.mkdir("/mnt", 0755), Errno::kOk);
  ASSERT_EQ(vfs_.mount("/mnt", other), Errno::kOk);
  const std::uint64_t root_creates = fs_.stats().creates;
  auto fd = vfs_.open(fds_, "/mnt/new", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.close(fds_, fd.value());
  EXPECT_EQ(fs_.stats().creates, root_creates);
  EXPECT_EQ(other.stats().creates, 1u);
  EXPECT_TRUE(other.lookup(other.root(), "new").ok());
  EXPECT_EQ(fs_.lookup(fs_.root(), "new").error(), Errno::kENOENT);
  ASSERT_EQ(vfs_.unmount("/mnt"), Errno::kOk);
}

// Creating /pm/fN steps each component once: "pm", then the missing leaf,
// which is created in the directory the walk already reached.
TEST_F(VfsTest, CreateWalksEachComponentOnce) {
  ASSERT_EQ(vfs_.mkdir("/pm", 0755), Errno::kOk);
  std::uint64_t before = vfs_.stats().path_components;
  auto fd = vfs_.open(fds_, "/pm/f1", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.close(fds_, fd.value());
  EXPECT_EQ(vfs_.stats().path_components - before, 2u);

  before = vfs_.stats().path_components;
  fd = vfs_.open(fds_, "/pm/f1", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  vfs_.close(fds_, fd.value());
  EXPECT_EQ(vfs_.stats().path_components - before, 2u);
}

TEST_F(VfsTest, FdsAreReusedAfterClose) {
  auto a = vfs_.open(fds_, "/r1", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(a.ok());
  vfs_.close(fds_, a.value());
  auto b = vfs_.open(fds_, "/r2", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  vfs_.close(fds_, b.value());
}

// --- WrapFs ---------------------------------------------------------------------------------

class WrapFsTest : public ::testing::Test {
 protected:
  WrapFsTest() : pm_(1024), km_(pm_), wrap_(lower_, km_), vfs_(wrap_) {}

  vm::PhysMem pm_;
  mm::Kmalloc km_;
  MemFs lower_;
  WrapFs wrap_;
  Vfs vfs_;
  FdTable fds_;
};

TEST_F(WrapFsTest, PassThroughSemantics) {
  auto fd = vfs_.open(fds_, "/w.txt", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(vfs_.write(fds_, fd.value(), bytes("through the wrapper")).ok());
  vfs_.close(fds_, fd.value());

  auto rfd = vfs_.open(fds_, "/w.txt", kORdOnly, 0);
  std::byte buf[64];
  auto r = vfs_.read(fds_, rfd.value(), std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), 19u);
  EXPECT_EQ(std::memcmp(buf, "through the wrapper", 19), 0);
  vfs_.close(fds_, rfd.value());

  // The data really lives in the lower fs.
  auto ino = lower_.lookup(lower_.root(), "w.txt");
  ASSERT_TRUE(ino.ok());
  StatBuf st;
  ASSERT_EQ(lower_.getattr(ino.value(), &st), Errno::kOk);
  EXPECT_EQ(st.size, 19u);
}

TEST_F(WrapFsTest, AllocatesPrivateDataAndTempBuffers) {
  auto fd = vfs_.open(fds_, "/alloc.txt", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> big(10000, std::byte{7});
  ASSERT_TRUE(vfs_.write(fds_, fd.value(), big).ok());
  vfs_.close(fds_, fd.value());
  EXPECT_GE(wrap_.stats().private_allocs, 1u);
  EXPECT_GE(wrap_.stats().tmp_page_allocs, 3u);  // 10000 B = 3 page chunks
  EXPECT_GE(wrap_.stats().name_allocs, 1u);
  // Mean allocation size is small (the paper measured ~80 bytes).
  EXPECT_LT(km_.stats().mean_request_size(), 4096.0);
}

TEST_F(WrapFsTest, PrivateDataFreedOnUnlink) {
  auto fd = vfs_.open(fds_, "/die", kOWrOnly | kOCreat, 0644);
  vfs_.close(fds_, fd.value());
  std::uint64_t live_before = km_.stats().outstanding_allocs;
  ASSERT_EQ(vfs_.unlink("/die"), Errno::kOk);
  EXPECT_LT(km_.stats().outstanding_allocs, live_before);
}

TEST_F(WrapFsTest, ReaddirPassesThrough) {
  for (int i = 0; i < 5; ++i) {
    auto fd = vfs_.open(fds_, ("/e" + std::to_string(i)).c_str(),
                        kOWrOnly | kOCreat, 0644);
    vfs_.close(fds_, fd.value());
  }
  auto entries = wrap_.readdir(wrap_.root());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 5u);
}

TEST_F(WrapFsTest, RenameDropsReplacedPrivateData) {
  auto a = vfs_.open(fds_, "/src", kOWrOnly | kOCreat, 0644);
  vfs_.close(fds_, a.value());
  auto b = vfs_.open(fds_, "/dst", kOWrOnly | kOCreat, 0644);
  vfs_.close(fds_, b.value());
  EXPECT_EQ(vfs_.rename("/src", "/dst"), Errno::kOk);
  StatBuf st;
  EXPECT_EQ(vfs_.stat("/dst", &st), Errno::kOk);
  EXPECT_EQ(vfs_.stat("/src", &st), Errno::kENOENT);
}

}  // namespace
}  // namespace usk::fs
