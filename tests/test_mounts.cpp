// Tests for VFS mount points: grafting filesystems onto directories,
// mount-point traversal, cross-mount EXDEV semantics, unmounting, and the
// consolidated calls working across mounts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "consolidation/newcalls.hpp"
#include "fs/cryptfs.hpp"
#include "fs/journalfs.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "mm/kmalloc.hpp"
#include "uk/userlib.hpp"

namespace usk {
namespace {

class MountTest : public ::testing::Test {
 protected:
  MountTest()
      : jfs_(256, 1024, 128), kernel_(rootfs_), proc_(kernel_, "mnt") {
    rootfs_.set_cost_hook(kernel_.charge_hook());
    proc_.mkdir("/data");
    proc_.mkdir("/plain");
  }

  // Read a whole file through the syscall interface (read-until-EOF, as
  // /proc files stat with size 0).
  std::string cat(const char* path) {
    int fd = proc_.open(path, fs::kORdOnly);
    if (fd < 0) return {};
    std::string out;
    char buf[256];
    for (;;) {
      SysRet n = proc_.read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    proc_.close(fd);
    return out;
  }

  fs::MemFs rootfs_;
  fs::JournalFs<fs::RawPtrPolicy> jfs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

TEST_F(MountTest, MountAndTraverse) {
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  EXPECT_EQ(kernel_.vfs().mount_count(), 1u);

  // Files created under /data land in the journaling filesystem.
  int fd = proc_.open("/data/doc.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  proc_.write(fd, "on journalfs", 12);
  proc_.close(fd);

  EXPECT_TRUE(jfs_.lookup(jfs_.root(), "doc.txt").ok());
  EXPECT_FALSE(rootfs_.lookup(rootfs_.root(), "doc.txt").ok());
  // The covered MemFs directory stays empty.
  auto covered = rootfs_.lookup(rootfs_.root(), "data");
  ASSERT_TRUE(covered.ok());
  EXPECT_TRUE(rootfs_.readdir(covered.value()).value().empty());

  // Reads come back through the mount.
  char buf[32] = {};
  int rfd = proc_.open("/data/doc.txt", fs::kORdOnly);
  ASSERT_GE(proc_.read(rfd, buf, sizeof(buf)), 12);
  proc_.close(rfd);
  EXPECT_STREQ(buf, "on journalfs");
  EXPECT_GE(kernel_.vfs().stats().mount_crossings, 2u);
}

TEST_F(MountTest, StatAndReaddirAcrossMount) {
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  proc_.mkdir("/data/sub");
  int fd = proc_.open("/data/sub/f", fs::kOWrOnly | fs::kOCreat);
  char d[7] = {};
  proc_.write(fd, d, sizeof(d));
  proc_.close(fd);

  fs::StatBuf st;
  ASSERT_EQ(proc_.stat("/data/sub/f", &st), 0);
  EXPECT_EQ(st.size, 7u);
  auto entries = proc_.list_dir("/data/sub");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "f");

  // stat on the mount point reports the mounted root directory.
  ASSERT_EQ(proc_.stat("/data", &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kDirectory);
  EXPECT_EQ(st.ino, jfs_.root());
}

TEST_F(MountTest, CrossMountRenameAndLinkReturnExdev) {
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  int fd = proc_.open("/plain/file", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  EXPECT_EQ(proc_.rename("/plain/file", "/data/file"),
            sysret_err(Errno::kEXDEV));
  EXPECT_EQ(proc_.link("/plain/file", "/data/alias"),
            sysret_err(Errno::kEXDEV));
  // Within one side both still work.
  EXPECT_EQ(proc_.rename("/plain/file", "/plain/file2"), 0);
  fd = proc_.open("/data/a", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  EXPECT_EQ(proc_.link("/data/a", "/data/b"), 0);
}

TEST_F(MountTest, UnmountRestoresCoveredDirectory) {
  int fd = proc_.open("/data/underneath", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);

  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  fs::StatBuf st;
  EXPECT_EQ(proc_.stat("/data/underneath", &st),
            sysret_err(Errno::kENOENT));  // hidden by the mount

  ASSERT_EQ(kernel_.vfs().unmount("/data"), Errno::kOk);
  EXPECT_EQ(proc_.stat("/data/underneath", &st), 0);  // visible again
  EXPECT_EQ(kernel_.vfs().mount_count(), 0u);
}

TEST_F(MountTest, MountErrorCases) {
  fs::MemFs other;
  // Non-directory target.
  int fd = proc_.open("/plain/f", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  EXPECT_EQ(kernel_.vfs().mount("/plain/f", other), Errno::kENOTDIR);
  // Missing target.
  EXPECT_EQ(kernel_.vfs().mount("/nope", other), Errno::kENOENT);
  // Covering the root.
  EXPECT_EQ(kernel_.vfs().mount("/", other), Errno::kEBUSY);
  // Double mount on the same point (stacking) is refused.
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  fs::MemFs third;
  EXPECT_EQ(kernel_.vfs().mount("/data", third), Errno::kEBUSY);
  // Unmount of something not mounted.
  EXPECT_EQ(kernel_.vfs().unmount("/plain"), Errno::kEINVAL);
}

TEST_F(MountTest, RmdirOfMountPointIsBusy) {
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  EXPECT_EQ(proc_.rmdir("/data"), sysret_err(Errno::kEBUSY));
  ASSERT_EQ(kernel_.vfs().unmount("/data"), Errno::kOk);
  EXPECT_EQ(proc_.rmdir("/data"), 0);
}

TEST_F(MountTest, ReaddirplusWorksAcrossTheMount) {
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  for (int i = 0; i < 9; ++i) {
    std::string p = "/data/j" + std::to_string(i);
    int fd = proc_.open(p.c_str(), fs::kOWrOnly | fs::kOCreat);
    char b[3] = {};
    proc_.write(fd, b, static_cast<std::size_t>(i % 3));
    proc_.close(fd);
  }
  std::vector<std::byte> buf(8192);
  std::uint64_t cookie = 0;
  std::vector<std::pair<uk::UserDirent, fs::StatBuf>> all;
  for (;;) {
    SysRet n = consolidation::sys_readdirplus(kernel_, proc_.process(),
                                              "/data", buf.data(), buf.size(),
                                              &cookie);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    uk::decode_dirents_plus(
        std::span(buf.data(), static_cast<std::size_t>(n)), &all);
  }
  EXPECT_EQ(all.size(), 9u);
}

TEST_F(MountTest, InodeNumbersDoNotCollideInDcache) {
  // MemFs root and JournalFs root can share inode number 1; the dcache
  // must keep them apart via the fs id.
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  int fd = proc_.open("/clash", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  fd = proc_.open("/data/clash", fs::kOWrOnly | fs::kOCreat);
  char b[5] = {};
  proc_.write(fd, b, sizeof(b));
  proc_.close(fd);

  fs::StatBuf a{}, c{};
  ASSERT_EQ(proc_.stat("/clash", &a), 0);
  ASSERT_EQ(proc_.stat("/data/clash", &c), 0);
  EXPECT_EQ(a.size, 0u);
  EXPECT_EQ(c.size, 5u);
  // Repeat through the (now warm) dcache: answers must not swap.
  ASSERT_EQ(proc_.stat("/clash", &a), 0);
  ASSERT_EQ(proc_.stat("/data/clash", &c), 0);
  EXPECT_EQ(a.size, 0u);
  EXPECT_EQ(c.size, 5u);
}

TEST_F(MountTest, EncryptedVaultMountedOverPlainTree) {
  vm::PhysMem pm(1024);
  mm::Kmalloc km(pm);
  fs::MemFs vault_lower;
  fs::CryptFs vault(vault_lower, km, 0xFEED);
  ASSERT_EQ(kernel_.vfs().mount("/data", vault), Errno::kOk);

  int fd = proc_.open("/data/secret", fs::kOWrOnly | fs::kOCreat);
  proc_.write(fd, "classified", 10);
  proc_.close(fd);

  // Through the mount: plaintext. Underneath: ciphertext.
  char buf[16] = {};
  int rfd = proc_.open("/data/secret", fs::kORdOnly);
  proc_.read(rfd, buf, sizeof(buf));
  proc_.close(rfd);
  EXPECT_EQ(std::memcmp(buf, "classified", 10), 0);

  auto ino = vault_lower.lookup(vault_lower.root(), "secret");
  ASSERT_TRUE(ino.ok());
  std::byte raw[16];
  vault_lower.read(ino.value(), 0, std::span(raw, 10));
  EXPECT_NE(std::memcmp(raw, "classified", 10), 0);
}

TEST_F(MountTest, ProcfsMountsAlongsideOtherFilesystems) {
  ASSERT_EQ(kernel_.vfs().mount("/data", jfs_), Errno::kOk);
  kernel_.mount_procfs();
  EXPECT_EQ(kernel_.vfs().mount_count(), 2u);
  // mount_procfs is idempotent: a second call does not stack a new mount.
  kernel_.mount_procfs();
  EXPECT_EQ(kernel_.vfs().mount_count(), 2u);

  // Both mounts are live at once: write through the journal mount, read
  // kernel state through the proc mount.
  int fd = proc_.open("/data/f", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  proc_.write(fd, "x", 1);
  proc_.close(fd);
  EXPECT_NE(cat("/proc/vfs/stats").find("opens"), std::string::npos);
}

TEST_F(MountTest, ProcfsTraversalAndReaddirAcrossTheMountPoint) {
  kernel_.mount_procfs();

  // The mount point itself resolves to the procfs root directory.
  fs::StatBuf st;
  ASSERT_EQ(proc_.stat("/proc", &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kDirectory);

  auto names = [](const std::vector<uk::UserDirent>& es) {
    std::vector<std::string> out;
    for (const auto& e : es) out.push_back(e.name);
    return out;
  };
  auto top = names(proc_.list_dir("/proc"));
  for (const char* want : {"self", "vfs", "kernel", "mm", "sched", "trace"}) {
    EXPECT_NE(std::find(top.begin(), top.end(), want), top.end())
        << "missing /proc/" << want;
  }
  auto trace = names(proc_.list_dir("/proc/trace"));
  EXPECT_NE(std::find(trace.begin(), trace.end(), "hist"), trace.end());

  // Multi-component traversal deep into the synthetic tree.
  ASSERT_EQ(proc_.stat("/proc/trace/hist/syscall", &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kRegular);
}

TEST_F(MountTest, ProcfsFilesStatZeroButReadNonEmpty) {
  kernel_.mount_procfs();
  // Like the real /proc: getattr reports size 0, yet read() yields content
  // rendered at open time. Readers must loop to EOF, as cat() does.
  fs::StatBuf st;
  ASSERT_EQ(proc_.stat("/proc/self/stat", &st), 0);
  EXPECT_EQ(st.size, 0u);
  std::string text = cat("/proc/self/stat");
  EXPECT_FALSE(text.empty());
  EXPECT_NE(text.find("name mnt"), std::string::npos);
}

TEST_F(MountTest, ProcfsNamespaceIsReadOnlyAcrossTheMount) {
  kernel_.mount_procfs();
  EXPECT_EQ(proc_.mkdir("/proc/newdir"), sysret_err(Errno::kEROFS));
  EXPECT_EQ(proc_.open("/proc/newfile", fs::kOWrOnly | fs::kOCreat),
            sysret_err(Errno::kEROFS));
  EXPECT_EQ(proc_.unlink("/proc/vfs/stats"), sysret_err(Errno::kEROFS));
  EXPECT_EQ(proc_.rename("/proc/vfs/stats", "/proc/vfs/stats2"),
            sysret_err(Errno::kEROFS));
  // Cross-mount moves out of procfs fail before reaching the filesystem.
  EXPECT_EQ(proc_.rename("/proc/vfs/stats", "/plain/out"),
            sysret_err(Errno::kEXDEV));
}

TEST_F(MountTest, ProcfsRegisteredFilesAppearImmediately) {
  int value = 0;
  fs::ProcFs::Registration reg(kernel_.mount_procfs());
  reg.add_file("/test/value",
               [&value] { return std::to_string(value) + "\n"; });

  // Rendered fresh on each open: consecutive reads see live state.
  value = 7;
  EXPECT_EQ(cat("/proc/test/value"), "7\n");
  value = 42;
  EXPECT_EQ(cat("/proc/test/value"), "42\n");

  auto entries = proc_.list_dir("/proc/test");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "value");
}

TEST_F(MountTest, ProcfsUnmountAndRemount) {
  kernel_.mount_procfs();
  ASSERT_FALSE(cat("/proc/self/stat").empty());

  ASSERT_EQ(kernel_.vfs().unmount("/proc"), Errno::kOk);
  fs::StatBuf st;
  // The covering directory survives in the root filesystem; the synthetic
  // files are gone.
  EXPECT_EQ(proc_.stat("/proc", &st), 0);
  EXPECT_EQ(proc_.stat("/proc/self/stat", &st), sysret_err(Errno::kENOENT));

  // Remounting the same ProcFs instance brings the tree back.
  ASSERT_EQ(kernel_.vfs().mount("/proc", kernel_.mount_procfs()), Errno::kOk);
  EXPECT_NE(cat("/proc/self/stat").find("name mnt"), std::string::npos);
}

}  // namespace
}  // namespace usk
