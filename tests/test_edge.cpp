// Edge-case and robustness tests across the kernel surface: resource
// exhaustion, limit enforcement, hostile inputs, and concurrency on the
// dcache_lock.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "base/rng.hpp"
#include "consolidation/newcalls.hpp"
#include "fs/dcache.hpp"
#include "uk/userlib.hpp"
#include "numbered.hpp"

namespace usk {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() : kernel_(fs_), proc_(kernel_, "edge") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

TEST_F(EdgeTest, FdExhaustionReturnsEmfile) {
  fs::FdTable tiny(4);
  fs::Vfs& vfs = kernel_.vfs();
  int fd = proc_.open("/x", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    auto r = vfs.open(tiny, "/x", fs::kORdOnly, 0);
    ASSERT_TRUE(r.ok());
    fds.push_back(r.value());
  }
  auto r = vfs.open(tiny, "/x", fs::kORdOnly, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEMFILE);
  // Releasing one makes room again.
  vfs.close(tiny, fds[0]);
  EXPECT_TRUE(vfs.open(tiny, "/x", fs::kORdOnly, 0).ok());
}

TEST_F(EdgeTest, OverlongPathRejected) {
  std::string path = "/" + std::string(uk::Kernel::kMaxPath + 10, 'a');
  EXPECT_EQ(proc_.open(path.c_str(), fs::kORdOnly),
            -static_cast<int>(Errno::kENAMETOOLONG));
  EXPECT_EQ(proc_.mkdir(path.c_str()), sysret_err(Errno::kENAMETOOLONG));
}

TEST_F(EdgeTest, HugeReadRequestIsCapped) {
  int fd = proc_.open("/big", fs::kOWrOnly | fs::kOCreat);
  char data[100] = {};
  proc_.write(fd, data, sizeof(data));
  proc_.close(fd);
  int rfd = proc_.open("/big", fs::kORdOnly);
  // Ask for far more than kMaxIo; the kernel must clamp its own buffer
  // and return only what exists.
  std::vector<char> buf(200);
  SysRet n = proc_.read(rfd, buf.data(), static_cast<std::size_t>(-1) / 2);
  EXPECT_EQ(n, 100);
  proc_.close(rfd);
}

TEST_F(EdgeTest, ZeroByteIo) {
  int fd = proc_.open("/z", fs::kORdWr | fs::kOCreat);
  char b = 0;
  EXPECT_EQ(proc_.write(fd, &b, 0), 0);
  EXPECT_EQ(proc_.read(fd, &b, 0), 0);
  proc_.close(fd);
}

TEST_F(EdgeTest, PathologicalPathsResolve) {
  ASSERT_EQ(proc_.mkdir("/p"), 0);
  int fd = proc_.open("/p/f", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  fs::StatBuf st;
  EXPECT_EQ(proc_.stat("//p///f", &st), 0);     // duplicate slashes
  EXPECT_EQ(proc_.stat("/p/./f", &st), 0);      // dot components
  EXPECT_EQ(proc_.stat("/p/f/", &st), 0);       // trailing slash
  EXPECT_EQ(proc_.stat("/", &st), 0);           // root itself
  EXPECT_EQ(st.type, fs::FileType::kDirectory);
}

TEST_F(EdgeTest, OpeningFileAsDirectoryFails) {
  int fd = proc_.open("/plain", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  EXPECT_EQ(proc_.open("/plain/child", fs::kOWrOnly | fs::kOCreat),
            -static_cast<int>(Errno::kENOTDIR));
  EXPECT_EQ(proc_.mkdir("/plain/sub"), sysret_err(Errno::kENOTDIR));
}

TEST_F(EdgeTest, WriteToDirectoryRejected) {
  proc_.mkdir("/d");
  EXPECT_EQ(proc_.open("/d", fs::kOWrOnly),
            -static_cast<int>(Errno::kEISDIR));
  // Opening read-only is allowed (for readdir).
  int fd = proc_.open("/d", fs::kORdOnly);
  EXPECT_GE(fd, 0);
  proc_.close(fd);
}

TEST_F(EdgeTest, RenameOntoItselfAndIntoOwnChild) {
  proc_.mkdir("/r");
  int fd = proc_.open("/r/f", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  // Rename onto itself: POSIX says success, file remains.
  EXPECT_EQ(proc_.rename("/r/f", "/r/f"), 0);
  fs::StatBuf st;
  EXPECT_EQ(proc_.stat("/r/f", &st), 0);
}

TEST_F(EdgeTest, ReaddirplusOnFileFails) {
  int fd = proc_.open("/notdir", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  std::vector<std::byte> buf(512);
  std::uint64_t cookie = 0;
  SysRet n = consolidation::sys_readdirplus(kernel_, proc_.process(),
                                            "/notdir", buf.data(), buf.size(),
                                            &cookie);
  EXPECT_EQ(sysret_errno(n), Errno::kENOTDIR);
}

TEST_F(EdgeTest, NameAtMaximumLengthWorks) {
  std::string name(255, 'n');
  std::string path = "/" + name;
  int fd = proc_.open(path.c_str(), fs::kOWrOnly | fs::kOCreat);
  EXPECT_GE(fd, 0);
  proc_.close(fd);
  std::string too_long = "/" + std::string(256, 'n');
  EXPECT_EQ(proc_.open(too_long.c_str(), fs::kOWrOnly | fs::kOCreat),
            -static_cast<int>(Errno::kENAMETOOLONG));
}

// The dcache and its global lock under real thread concurrency: mixed
// lookups/inserts/invalidations from 4 threads must neither crash nor
// corrupt the LRU structures.
TEST(DcacheConcurrency, ParallelMixedOperations) {
  fs::Dcache dc(256);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> hits{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&dc, &hits, t] {
      base::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 20000; ++i) {
        fs::InodeNum parent = rng.below(8) + 1;
        std::string name = testutil::numbered("e", rng.below(64));
        switch (rng.below(10)) {
          case 0:
            dc.invalidate(parent, name);
            break;
          case 1:
            dc.invalidate_dir(parent);
            break;
          case 2:
          case 3:
          case 4:
            dc.insert(parent, name, rng.below(1000) + 1);
            break;
          default:
            if (dc.lookup(parent, name) != fs::kInvalidInode) {
              hits.fetch_add(1, std::memory_order_relaxed);
            }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(dc.size(), 256u);
  // Structure still coherent: inserts and lookups behave.
  dc.insert(1, "post", 42);
  EXPECT_EQ(dc.lookup(1, "post"), 42u);
}

// Two processes interleaving syscalls against one kernel (the simulated
// kernel is single-CPU: syscalls are serialized, as on the paper's P4).
// Per-process state -- fd tables, positions, accounting -- must not cross.
TEST(KernelInterleaving, TwoProcessesStress) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc a(kernel, "a");
  uk::Proc b(kernel, "b");
  a.mkdir("/ta");
  b.mkdir("/tb");

  base::Rng rng(7);
  char abuf[256];
  char bbuf[256];
  std::memset(abuf, 'A', sizeof(abuf));
  std::memset(bbuf, 'B', sizeof(bbuf));
  // Keep a file open in each process across the other's activity: the
  // numeric fds collide, the OpenFile state must not.
  int afd = a.open("/ta/shared", fs::kORdWr | fs::kOCreat);
  int bfd = b.open("/tb/shared", fs::kORdWr | fs::kOCreat);
  ASSERT_EQ(afd, bfd);  // same small integer in both tables
  a.write(afd, abuf, sizeof(abuf));
  b.write(bfd, bbuf, 100);

  for (int i = 0; i < 500; ++i) {
    // Interleave at single-call granularity.
    std::string ap = "/ta/f" + std::to_string(rng.below(10));
    std::string bp = "/tb/f" + std::to_string(rng.below(10));
    int f1 = a.open(ap.c_str(), fs::kORdWr | fs::kOCreat);
    int f2 = b.open(bp.c_str(), fs::kORdWr | fs::kOCreat);
    ASSERT_GE(f1, 0);
    ASSERT_GE(f2, 0);
    a.write(f1, abuf, rng.below(sizeof(abuf)));
    b.write(f2, bbuf, rng.below(sizeof(bbuf)));
    a.close(f1);
    b.close(f2);
  }

  // The long-lived fds still carry the right per-process positions.
  fs::StatBuf st;
  ASSERT_EQ(a.fstat(afd, &st), 0);
  EXPECT_EQ(st.size, sizeof(abuf));
  ASSERT_EQ(b.fstat(bfd, &st), 0);
  EXPECT_EQ(st.size, 100u);
  char check = 0;
  a.lseek(afd, 0, fs::kSeekSet);
  a.read(afd, &check, 1);
  EXPECT_EQ(check, 'A');
  b.lseek(bfd, 0, fs::kSeekSet);
  b.read(bfd, &check, 1);
  EXPECT_EQ(check, 'B');
  a.close(afd);
  b.close(bfd);
  EXPECT_EQ(a.process().fds.open_count(), 0u);
  EXPECT_EQ(b.process().fds.open_count(), 0u);
}

}  // namespace
}  // namespace usk
