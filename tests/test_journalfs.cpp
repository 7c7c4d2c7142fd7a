// Tests for JournalFs under both pointer policies: full filesystem
// semantics with raw pointers, and identical behaviour plus check activity
// under the KGCC (BCC checked-pointer) policy.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "bcc/checked_ptr.hpp"
#include "fs/journalfs.hpp"
#include "fs/vfs.hpp"
#include "numbered.hpp"

namespace usk::fs {
namespace {

std::span<const std::byte> bytes(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

template <typename Policy>
std::unique_ptr<JournalFs<Policy>> make_fs() {
  return std::make_unique<JournalFs<Policy>>(
      /*max_inodes=*/256, /*data_blocks=*/512, /*journal_slots=*/128);
}

template <typename Policy>
class JournalFsTest : public ::testing::Test {
 protected:
  JournalFsTest() : fs_(make_fs<Policy>()) {}
  std::unique_ptr<JournalFs<Policy>> fs_;
};

using Policies = ::testing::Types<RawPtrPolicy, bcc::BccPtrPolicy>;
TYPED_TEST_SUITE(JournalFsTest, Policies);

TYPED_TEST(JournalFsTest, CreateLookupRoundTrip) {
  auto& fs = *this->fs_;
  auto ino = fs.create(fs.root(), "file1", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  auto found = fs.lookup(fs.root(), "file1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), ino.value());
  EXPECT_FALSE(fs.lookup(fs.root(), "nope").ok());
}

TYPED_TEST(JournalFsTest, WriteReadAcrossBlocks) {
  auto& fs = *this->fs_;
  auto ino = fs.create(fs.root(), "big", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::byte> data(3 * 4096 + 500);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7);
  }
  auto w = fs.write(ino.value(), 0, data);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), data.size());

  std::vector<std::byte> out(data.size());
  auto r = fs.read(ino.value(), 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data.size());
  EXPECT_EQ(out, data);

  // Partial read at an unaligned offset.
  std::vector<std::byte> mid(1000);
  r = fs.read(ino.value(), 4000, mid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::memcmp(mid.data(), data.data() + 4000, 1000), 0);
}

TYPED_TEST(JournalFsTest, IndirectBlocksForLargeFiles) {
  auto& fs = *this->fs_;
  auto ino = fs.create(fs.root(), "huge", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  // Past the 12 direct blocks (48 KiB).
  std::vector<std::byte> chunk(4096, std::byte{0x3C});
  auto w = fs.write(ino.value(), 14 * 4096, chunk);
  ASSERT_TRUE(w.ok());
  std::vector<std::byte> out(4096);
  auto r = fs.read(ino.value(), 14 * 4096, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, chunk);
  // The hole before it reads back zeroes.
  r = fs.read(ino.value(), 13 * 4096, out);
  ASSERT_TRUE(r.ok());
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TYPED_TEST(JournalFsTest, UnlinkFreesBlocks) {
  auto& fs = *this->fs_;
  auto ino = fs.create(fs.root(), "tmp", FileType::kRegular, 0644);
  std::vector<std::byte> data(8192, std::byte{1});
  ASSERT_TRUE(fs.write(ino.value(), 0, data).ok());
  std::uint64_t allocated = fs.jstats().blocks_allocated;
  EXPECT_GE(allocated, 2u);
  ASSERT_EQ(fs.unlink(fs.root(), "tmp"), Errno::kOk);
  EXPECT_GE(fs.jstats().blocks_freed, 2u);
  EXPECT_FALSE(fs.lookup(fs.root(), "tmp").ok());
}

TYPED_TEST(JournalFsTest, DirectoriesNestAndList) {
  auto& fs = *this->fs_;
  auto d = fs.create(fs.root(), "sub", FileType::kDirectory, 0755);
  ASSERT_TRUE(d.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.create(d.value(), testutil::numbered("f", i),
                          FileType::kRegular, 0644).ok());
  }
  auto entries = fs.readdir(d.value());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 10u);
  EXPECT_EQ(entries.value()[0].name, "f0");
}

TYPED_TEST(JournalFsTest, DirectoryGrowsPastOneBlock) {
  auto& fs = *this->fs_;
  // 64 dirents fit in one block; add more.
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) {
    std::string name = "entry" + std::to_string(i);
    ASSERT_TRUE(fs.create(fs.root(), name, FileType::kRegular, 0644).ok())
        << name;
    names.insert(name);
  }
  auto entries = fs.readdir(fs.root());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 100u);
  for (auto& e : entries.value()) EXPECT_TRUE(names.contains(e.name));
}

TYPED_TEST(JournalFsTest, DirentSlotReuseAfterUnlink) {
  auto& fs = *this->fs_;
  ASSERT_TRUE(fs.create(fs.root(), "a", FileType::kRegular, 0644).ok());
  ASSERT_TRUE(fs.create(fs.root(), "b", FileType::kRegular, 0644).ok());
  ASSERT_EQ(fs.unlink(fs.root(), "a"), Errno::kOk);
  ASSERT_TRUE(fs.create(fs.root(), "c", FileType::kRegular, 0644).ok());
  auto entries = fs.readdir(fs.root());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 2u);
}

TYPED_TEST(JournalFsTest, RenameIncludingReplace) {
  auto& fs = *this->fs_;
  auto a = fs.create(fs.root(), "x", FileType::kRegular, 0644);
  ASSERT_TRUE(fs.write(a.value(), 0, bytes("xdata")).ok());
  ASSERT_TRUE(fs.create(fs.root(), "y", FileType::kRegular, 0644).ok());
  ASSERT_EQ(fs.rename(fs.root(), "x", fs.root(), "y"), Errno::kOk);
  EXPECT_FALSE(fs.lookup(fs.root(), "x").ok());
  auto y = fs.lookup(fs.root(), "y");
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y.value(), a.value());
}

TYPED_TEST(JournalFsTest, HardLinksAndChmod) {
  auto& fs = *this->fs_;
  auto f = fs.create(fs.root(), "orig", FileType::kRegular, 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs.write(f.value(), 0, bytes("linked")).ok());
  ASSERT_EQ(fs.link(fs.root(), "alias", f.value()), Errno::kOk);
  auto alias = fs.lookup(fs.root(), "alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias.value(), f.value());
  StatBuf st;
  ASSERT_EQ(fs.getattr(f.value(), &st), Errno::kOk);
  EXPECT_EQ(st.nlink, 2u);

  ASSERT_EQ(fs.chmod(f.value(), 0600), Errno::kOk);
  fs.getattr(f.value(), &st);
  EXPECT_EQ(st.mode, 0600u);

  // Data survives the first unlink.
  ASSERT_EQ(fs.unlink(fs.root(), "orig"), Errno::kOk);
  std::byte buf[6];
  auto r = fs.read(alias.value(), 0, std::span(buf, sizeof(buf)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::memcmp(buf, "linked", 6), 0);
  ASSERT_EQ(fs.unlink(fs.root(), "alias"), Errno::kOk);
  EXPECT_FALSE(fs.lookup(fs.root(), "alias").ok());

  // Directories cannot be hard linked.
  auto d = fs.create(fs.root(), "dir", FileType::kDirectory, 0755);
  EXPECT_EQ(fs.link(fs.root(), "dl", d.value()), Errno::kEPERM);
}

TYPED_TEST(JournalFsTest, RmdirSemantics) {
  auto& fs = *this->fs_;
  auto d = fs.create(fs.root(), "dir", FileType::kDirectory, 0755);
  ASSERT_TRUE(fs.create(d.value(), "kid", FileType::kRegular, 0644).ok());
  EXPECT_EQ(fs.rmdir(fs.root(), "dir"), Errno::kENOTEMPTY);
  ASSERT_EQ(fs.unlink(d.value(), "kid"), Errno::kOk);
  EXPECT_EQ(fs.rmdir(fs.root(), "dir"), Errno::kOk);
  EXPECT_FALSE(fs.lookup(fs.root(), "dir").ok());
}

TYPED_TEST(JournalFsTest, TruncateShrinkFreesAndZeroes) {
  auto& fs = *this->fs_;
  auto ino = fs.create(fs.root(), "t", FileType::kRegular, 0644);
  std::vector<std::byte> data(8192, std::byte{9});
  ASSERT_TRUE(fs.write(ino.value(), 0, data).ok());
  ASSERT_EQ(fs.truncate(ino.value(), 100), Errno::kOk);
  StatBuf st;
  ASSERT_EQ(fs.getattr(ino.value(), &st), Errno::kOk);
  EXPECT_EQ(st.size, 100u);
  EXPECT_GE(fs.jstats().blocks_freed, 1u);
}

TYPED_TEST(JournalFsTest, JournalRecordsMetadataUpdates) {
  auto& fs = *this->fs_;
  std::uint64_t before = fs.jstats().journal_records;
  auto ino = fs.create(fs.root(), "j", FileType::kRegular, 0644);
  ASSERT_TRUE(fs.write(ino.value(), 0, bytes("journaled")).ok());
  EXPECT_GT(fs.jstats().journal_records, before);
  EXPECT_EQ(fs.sync(), Errno::kOk);
  EXPECT_GE(fs.jstats().journal_commits, 1u);
}

TYPED_TEST(JournalFsTest, InodeExhaustion) {
  JournalFs<TypeParam> tiny(/*max_inodes=*/4, /*data_blocks=*/64,
                            /*journal_slots=*/16);
  // Root uses inode 0; three more fit.
  ASSERT_TRUE(tiny.create(tiny.root(), "a", FileType::kRegular, 0644).ok());
  ASSERT_TRUE(tiny.create(tiny.root(), "b", FileType::kRegular, 0644).ok());
  ASSERT_TRUE(tiny.create(tiny.root(), "c", FileType::kRegular, 0644).ok());
  EXPECT_EQ(tiny.create(tiny.root(), "d", FileType::kRegular, 0644).error(),
            Errno::kENOSPC);
}

TYPED_TEST(JournalFsTest, BlockExhaustion) {
  JournalFs<TypeParam> tiny(/*max_inodes=*/16, /*data_blocks=*/8,
                            /*journal_slots=*/16);
  auto ino = tiny.create(tiny.root(), "fat", FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::byte> data(16 * 4096, std::byte{1});
  auto w = tiny.write(ino.value(), 0, data);
  // Either a short write or ENOSPC -- but never corruption.
  if (w.ok()) {
    EXPECT_LT(w.value(), data.size());
  } else {
    EXPECT_EQ(w.error(), Errno::kENOSPC);
  }
}

TYPED_TEST(JournalFsTest, WorksBehindTheVfs) {
  auto& fs = *this->fs_;
  Vfs vfs(fs);
  FdTable fds;
  ASSERT_EQ(vfs.mkdir("/work", 0755), Errno::kOk);
  auto fd = vfs.open(fds, "/work/doc", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(vfs.write(fds, fd.value(), bytes("via vfs")).ok());
  vfs.close(fds, fd.value());
  StatBuf st;
  ASSERT_EQ(vfs.stat("/work/doc", &st), Errno::kOk);
  EXPECT_EQ(st.size, 7u);
}

// --- fsck ----------------------------------------------------------------------

TYPED_TEST(JournalFsTest, FsckCleanAfterHeavyChurn) {
  auto& fs = *this->fs_;
  // Create, write, link, rename, truncate, delete -- then verify the
  // on-disk structures are fully consistent.
  for (int round = 0; round < 3; ++round) {
    auto d = fs.create(fs.root(), "dir" + std::to_string(round),
                       FileType::kDirectory, 0755);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 15; ++i) {
      auto f = fs.create(d.value(), testutil::numbered("f", i),
                         FileType::kRegular, 0644);
      ASSERT_TRUE(f.ok());
      std::vector<std::byte> data(static_cast<std::size_t>(i) * 700,
                                  std::byte{9});
      ASSERT_TRUE(fs.write(f.value(), 0, data).ok());
    }
    ASSERT_EQ(fs.link(d.value(), "hard", fs.lookup(d.value(), "f3").value()),
              Errno::kOk);
    ASSERT_EQ(fs.rename(d.value(), "f4", d.value(), "renamed"), Errno::kOk);
    ASSERT_EQ(fs.truncate(fs.lookup(d.value(), "f9").value(), 10), Errno::kOk);
    ASSERT_EQ(fs.unlink(d.value(), "f5"), Errno::kOk);
  }
  auto rep = fs.fsck();
  EXPECT_TRUE(rep.clean);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
}

TYPED_TEST(JournalFsTest, FsckDetectsBlockSharing) {
  auto& fs = *this->fs_;
  auto a = fs.create(fs.root(), "a", FileType::kRegular, 0644);
  auto b = fs.create(fs.root(), "b", FileType::kRegular, 0644);
  std::vector<std::byte> data(100, std::byte{1});
  ASSERT_TRUE(fs.write(a.value(), 0, data).ok());
  ASSERT_TRUE(fs.write(b.value(), 0, data).ok());
  // Corrupt: point b's first block at a's.
  auto na = fs.debug_inode(a.value());
  auto nb = fs.debug_inode(b.value());
  nb.direct[0] = na.direct[0];
  fs.debug_set_inode(b.value(), nb);
  auto rep = fs.fsck();
  EXPECT_FALSE(rep.clean);
  bool found = false;
  for (const auto& p : rep.problems) {
    if (p.find("shared by inodes") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TYPED_TEST(JournalFsTest, FsckDetectsFreeBlockReference) {
  auto& fs = *this->fs_;
  auto a = fs.create(fs.root(), "a", FileType::kRegular, 0644);
  std::vector<std::byte> data(100, std::byte{1});
  ASSERT_TRUE(fs.write(a.value(), 0, data).ok());
  auto na = fs.debug_inode(a.value());
  fs.debug_set_bitmap(na.direct[0], false);  // clear the bitmap bit
  auto rep = fs.fsck();
  EXPECT_FALSE(rep.clean);
  bool found = false;
  for (const auto& p : rep.problems) {
    if (p.find("references free block") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TYPED_TEST(JournalFsTest, FsckDetectsLeakedBlockAndBadNlink) {
  auto& fs = *this->fs_;
  auto a = fs.create(fs.root(), "a", FileType::kRegular, 0644);
  std::vector<std::byte> data(10, std::byte{1});
  ASSERT_TRUE(fs.write(a.value(), 0, data).ok());
  // Leak: mark an unused block as allocated.
  fs.debug_set_bitmap(200, true);
  // Bad nlink: claim two links while one dirent exists.
  auto na = fs.debug_inode(a.value());
  na.nlink = 2;
  fs.debug_set_inode(a.value(), na);
  auto rep = fs.fsck();
  EXPECT_FALSE(rep.clean);
  int found = 0;
  for (const auto& p : rep.problems) {
    if (p.find("leaked") != std::string::npos) ++found;
    if (p.find("has nlink") != std::string::npos) ++found;
  }
  EXPECT_EQ(found, 2);
}

TYPED_TEST(JournalFsTest, FsckDetectsDanglingDirent) {
  auto& fs = *this->fs_;
  auto a = fs.create(fs.root(), "ghost", FileType::kRegular, 0644);
  // Corrupt: mark the inode unused while its dirent remains.
  auto na = fs.debug_inode(a.value());
  na.used = 0;
  fs.debug_set_inode(a.value(), na);
  auto rep = fs.fsck();
  EXPECT_FALSE(rep.clean);
  bool found = false;
  for (const auto& p : rep.problems) {
    if (p.find("unused inode") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(JournalFsKgccTest, CheckedPolicyPerformsChecks) {
  bcc::Runtime& rt = bcc::Runtime::instance();
  rt.clear_errors();
  std::uint64_t checks_before = rt.stats().checks;
  {
    auto fs = make_fs<bcc::BccPtrPolicy>();
    auto ino = fs->create(fs->root(), "checked", FileType::kRegular, 0644);
    ASSERT_TRUE(ino.ok());
    std::vector<std::byte> data(4096, std::byte{2});
    ASSERT_TRUE(fs->write(ino.value(), 0, data).ok());
  }
  // The instrumented build performed a substantial number of checks and
  // found no violations in correct filesystem code.
  EXPECT_GT(rt.stats().checks - checks_before, 4096u);
  EXPECT_TRUE(rt.errors().empty());
}

TEST(JournalFsKgccTest, RawPolicyPerformsNoChecks) {
  bcc::Runtime& rt = bcc::Runtime::instance();
  std::uint64_t checks_before = rt.stats().checks;
  auto fs = make_fs<RawPtrPolicy>();
  auto ino = fs->create(fs->root(), "raw", FileType::kRegular, 0644);
  std::vector<std::byte> data(4096, std::byte{2});
  ASSERT_TRUE(fs->write(ino.value(), 0, data).ok());
  EXPECT_EQ(rt.stats().checks, checks_before);
}

}  // namespace
}  // namespace usk::fs
