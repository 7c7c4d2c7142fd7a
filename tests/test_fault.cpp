// Tests for kfail: deterministic fault injection, the p=1 error-path
// sweeps (right errno, nothing leaked), torn-write crash recovery of a
// store-attached JournalFs, compound rollback in Cosy, and the
// EBADF-before-copy ordering audit of the syscall layer.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "fault/kfail.hpp"
#include "fs/journalfs.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "mm/kmalloc.hpp"
#include "net/net.hpp"
#include "store/store.hpp"
#include "uk/kernel.hpp"
#include "uk/userlib.hpp"
#include "vm/phys.hpp"
#include "kfail_fixture.hpp"
#include "temp_dir.hpp"
#include "numbered.hpp"

namespace usk {
namespace {

using fault::Site;
using fault::SiteConfig;

/// Each test arms its own injector: a Kernel's for calls on that Kernel,
/// else the fixture's, which it binds to the test thread for the fault
/// points hit outside any Kernel call.
class FaultTest : public testutil::KfailTest {
 protected:
  static SiteConfig always(Errno err = Errno::kOk) {
    SiteConfig c;
    c.p = 1.0;
    c.err = err;
    return c;
  }
};

// --- determinism --------------------------------------------------------------

TEST_F(FaultTest, SameSeedSameSchedule) {
  SiteConfig c;
  c.p = 0.3;
  auto run = [&] {
    kf_.set_seed(99);
    kf_.arm(Site::kKmalloc, c);
    std::vector<bool> hits;
    for (int i = 0; i < 64; ++i) {
      hits.push_back(USK_FAIL_POINT(Site::kKmalloc).fail);
    }
    kf_.disarm_all();
    return hits;
  };
  std::vector<bool> a = run();
  std::vector<bool> b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);

  // A different seed gives a different schedule (with 64 draws at p=0.3
  // a collision is astronomically unlikely).
  kf_.set_seed(100);
  kf_.arm(Site::kKmalloc, c);
  std::vector<bool> d;
  for (int i = 0; i < 64; ++i) d.push_back(USK_FAIL_POINT(Site::kKmalloc).fail);
  EXPECT_NE(a, d);
}

TEST_F(FaultTest, NthFailsExactlyOnce) {
  SiteConfig c;
  c.nth = 3;
  kf_.arm(Site::kDiskRead, c);
  int failures = 0;
  int failed_at = 0;
  for (int i = 1; i <= 10; ++i) {
    if (USK_FAIL_POINT(Site::kDiskRead).fail) {
      ++failures;
      failed_at = i;
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(failed_at, 3);
}

TEST_F(FaultTest, BudgetCapsInjections) {
  SiteConfig c = always();
  c.budget = 2;
  kf_.arm(Site::kCopyIn, c);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (USK_FAIL_POINT(Site::kCopyIn).fail) ++failures;
  }
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(kf_.stats(Site::kCopyIn).injected, 2u);
  EXPECT_EQ(kf_.stats(Site::kCopyIn).checks, 10u);
}

TEST_F(FaultTest, DisarmedCostsNothingAndCountsNothing) {
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(USK_FAIL_POINT(Site::kKmalloc).fail);
  EXPECT_EQ(kf_.stats(Site::kKmalloc).checks, 0u);
}

// --- spec parsing -------------------------------------------------------------

TEST_F(FaultTest, SpecRoundTrip) {
  ASSERT_TRUE(
      kf_.apply_spec("seed=42,kmalloc:p=0.5,disk.*:p=0.25:transient").ok());
  EXPECT_EQ(kf_.seed(), 42u);
  EXPECT_TRUE(kf_.site_armed(Site::kKmalloc));
  EXPECT_TRUE(kf_.site_armed(Site::kDiskRead));
  EXPECT_TRUE(kf_.site_armed(Site::kDiskWrite));
  EXPECT_TRUE(kf_.site_armed(Site::kDiskTorn));
  EXPECT_FALSE(kf_.site_armed(Site::kNetRecv));
  std::string spec = kf_.format_spec();
  EXPECT_NE(spec.find("kmalloc:p=0.5"), std::string::npos) << spec;

  ASSERT_TRUE(kf_.apply_spec("off").ok());
  EXPECT_FALSE(fault::armed());
}

TEST_F(FaultTest, BadSpecRejectedAtomically) {
  EXPECT_FALSE(kf_.apply_spec("kmalloc:p=0.5,nosuchsite:p=1").ok());
  // The valid clause before the bad one must NOT have been applied.
  EXPECT_FALSE(kf_.site_armed(Site::kKmalloc));
  EXPECT_FALSE(kf_.apply_spec("kmalloc:p=2.0").ok());
  EXPECT_FALSE(kf_.apply_spec("kmalloc:errno=EMAGIC").ok());
}

TEST_F(FaultTest, ErrnoOverride) {
  kf_.arm(Site::kDiskWrite, always(Errno::kENOSPC));
  fault::Outcome f = USK_FAIL_POINT(Site::kDiskWrite);
  EXPECT_TRUE(f.fail);
  EXPECT_EQ(f.err, Errno::kENOSPC);
}

// --- p=1 subsystem sweeps: right errno, nothing leaked ------------------------

TEST_F(FaultTest, KmallocEnomemLeaksNoFrames) {
  vm::PhysMem phys(1024);
  mm::Kmalloc km(phys);
  std::size_t free_before = phys.free_frames();
  std::uint64_t failed_before = km.stats().failed_allocs;

  kf_.arm(Site::kKmalloc, always());
  for (int i = 0; i < 32; ++i) {
    mm::BufferHandle h = km.alloc(512, __FILE__, __LINE__);
    EXPECT_FALSE(h.valid());
  }
  kf_.disarm_all();

  EXPECT_EQ(km.stats().failed_allocs, failed_before + 32);
  // Failed allocations must not consume physical frames.
  EXPECT_EQ(phys.free_frames(), free_before);

  // And the allocator still works once the fault clears.
  mm::BufferHandle h = km.alloc(512, __FILE__, __LINE__);
  EXPECT_TRUE(h.valid());
  km.free(h);
}

TEST_F(FaultTest, DiskEioSurfacesAndCounts) {
  blockdev::Disk disk(1 << 12);
  kf_.arm(Site::kDiskRead, always());
  Result<void> r = disk.read(7);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEIO);
  EXPECT_EQ(disk.stats().media_errors, 1u);
  kf_.disarm_all();
  EXPECT_TRUE(disk.read(7).ok());
}

TEST_F(FaultTest, DiskLatencySpikeChargesMore) {
  blockdev::Disk disk(1 << 12);
  std::uint64_t charged = 0;
  disk.set_charge_hook([&](std::uint64_t u) { charged = u; });
  ASSERT_TRUE(disk.read(0).ok());
  ASSERT_TRUE(disk.read(1).ok());
  std::uint64_t normal = charged;

  kf_.arm(Site::kDiskLatency, always());
  ASSERT_TRUE(disk.read(2).ok());  // a spike delays, it does not fail
  EXPECT_GT(charged, normal * 5);
  EXPECT_EQ(disk.stats().latency_spikes, 1u);
}

TEST_F(FaultTest, BufferCacheKeepsDirtyBlockOnFailedWriteback) {
  blockdev::Disk disk(1 << 12);
  blockdev::BufferCache cache(disk, /*capacity=*/64);
  ASSERT_TRUE(cache.write(5).ok());

  kf_.arm(Site::kDiskWrite, always());
  Result<void> r = cache.flush();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEIO);
  kf_.disarm_all();

  // The dirty block survived the failed flush and lands on the second try.
  std::uint64_t wb_before = cache.stats().writebacks;
  ASSERT_TRUE(cache.flush().ok());
  EXPECT_GT(cache.stats().writebacks, wb_before);
}

TEST_F(FaultTest, CopyFaultFailsSyscallWithoutLeakingFds) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "faulty");

  int fd = proc.open("/f", fs::kORdWr | fs::kOCreat);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(proc.write(fd, "hello", 5), 5);
  std::size_t open_before = proc.process().fds.open_count();

  // Every path copy-in faults: open must return EFAULT and install no fd.
  kernel.kfail().arm(Site::kCopyIn, always());
  EXPECT_EQ(proc.open("/g", fs::kORdWr | fs::kOCreat),
            -static_cast<int>(Errno::kEFAULT));
  char buf[8] = {};
  EXPECT_EQ(proc.write(fd, buf, 4), sysret_err(Errno::kEFAULT));
  kernel.kfail().disarm_all();

  EXPECT_EQ(proc.process().fds.open_count(), open_before);
  EXPECT_FALSE(fs.lookup(fs.root(), "g").ok());  // no orphan inode either
  EXPECT_GT(kernel.boundary().stats().copy_faults, 0u);
  proc.close(fd);
}

TEST_F(FaultTest, CopyOutFaultRewindsReadPosition) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "rewind");

  int fd = proc.open("/r", fs::kORdWr | fs::kOCreat);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(proc.write(fd, "abcdef", 6), 6);
  ASSERT_EQ(proc.lseek(fd, 0, fs::kSeekSet), 0);

  char buf[8] = {};
  kernel.kfail().arm(Site::kCopyOut, always());
  EXPECT_EQ(proc.read(fd, buf, 6), sysret_err(Errno::kEFAULT));
  kernel.kfail().disarm_all();

  // The faulted read consumed nothing: the same bytes come back now.
  EXPECT_EQ(proc.read(fd, buf, 6), 6);
  EXPECT_EQ(std::memcmp(buf, "abcdef", 6), 0);
  proc.close(fd);
}

TEST_F(FaultTest, MemFsSurfacesDiskEio) {
  blockdev::Disk disk(1 << 14);
  blockdev::BufferCache cache(disk, 8);
  fs::MemFs fs;
  fs.set_io_model(&cache);
  auto ino = fs.create(fs.root(), "f", fs::FileType::kRegular, 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::byte> big(64 * 1024);  // > cache capacity: must touch disk
  ASSERT_TRUE(fs.write(ino.value(), 0, big).ok());

  kf_.arm(Site::kDiskRead, always());
  // Cold cache after the writes evicted everything; reads hit the disk.
  Result<std::size_t> r = fs.read(ino.value(), 0, big);
  kf_.disarm_all();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEIO);
  EXPECT_TRUE(fs.read(ino.value(), 0, big).ok());
}

// --- net: reset/EAGAIN storms -------------------------------------------------

TEST_F(FaultTest, NetFaultsSurfaceRightErrnos) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);
  uk::Proc server(kernel, "srv");
  uk::Proc client(kernel, "cli");

  int ls = static_cast<int>(net.sys_socket(server.process()));
  ASSERT_GE(ls, 0);
  ASSERT_EQ(net.sys_bind(server.process(), ls, 80), 0);
  ASSERT_EQ(net.sys_listen(server.process(), ls, 8), 0);
  int cs = static_cast<int>(net.sys_socket(client.process()));
  ASSERT_GE(cs, 0);
  ASSERT_EQ(net.sys_connect(client.process(), cs, 80), 0);

  std::size_t srv_fds = server.process().fds.open_count();
  kernel.kfail().arm(Site::kNetAccept, always());
  EXPECT_EQ(net.sys_accept(server.process(), ls),
            sysret_err(Errno::kECONNRESET));
  kernel.kfail().disarm_all();
  // The refused accept installed no fd; the connection is still queued.
  EXPECT_EQ(server.process().fds.open_count(), srv_fds);
  int conn = static_cast<int>(net.sys_accept(server.process(), ls));
  ASSERT_GE(conn, 0);

  kernel.kfail().arm(Site::kNetSend, always(Errno::kEAGAIN));
  EXPECT_EQ(net.sys_send(client.process(), cs, "x", 1),
            sysret_err(Errno::kEAGAIN));
  kernel.kfail().disarm_all();
  ASSERT_EQ(net.sys_send(client.process(), cs, "x", 1), 1);

  kernel.kfail().arm(Site::kNetRecv, always());
  char b[4];
  EXPECT_EQ(net.sys_recv(server.process(), conn, b, sizeof b),
            sysret_err(Errno::kECONNRESET));
  kernel.kfail().disarm_all();
  EXPECT_EQ(net.sys_recv(server.process(), conn, b, sizeof b), 1);

  server.close(conn);
  server.close(ls);
  client.close(cs);
}

// --- cosy: mid-compound abort rolls back fds ----------------------------------

TEST_F(FaultTest, CosyAbortRollsBackOpenedFds) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "cosy");
  cosy::CosyExtension ext(kernel);
  cosy::SharedBuffer shared(1 << 12);

  cosy::CompoundBuilder b;
  int open_op = b.open(b.str("/c"), cosy::imm(fs::kOWrOnly | fs::kOCreat),
                       cosy::imm(0644));
  b.write(cosy::result_of(open_op), cosy::shared(0), cosy::imm(16));
  b.getpid();
  b.getpid();
  b.close(cosy::result_of(open_op));
  cosy::Compound c = b.finish();

  std::size_t fds_before = proc.process().fds.open_count();

  // Abort between op 2 and op 3: the open already happened, the close
  // never runs. The executor must close the orphan itself.
  SiteConfig cfg;
  cfg.nth = 3;
  kernel.kfail().arm(Site::kCosyOp, cfg);
  cosy::CosyResult r = ext.execute(proc.process(), c, shared);
  kernel.kfail().disarm_all();

  EXPECT_EQ(r.ret, sysret_err(Errno::kEINTR));
  EXPECT_EQ(proc.process().fds.open_count(), fds_before);
  EXPECT_EQ(ext.stats().fault_aborts, 1u);
  EXPECT_EQ(ext.stats().fds_rolled_back, 1u);

  // Clean replay with faults off: same compound completes.
  cosy::CosyResult ok = ext.execute(proc.process(), c, shared);
  EXPECT_EQ(ok.ret, 0);
  EXPECT_EQ(proc.process().fds.open_count(), fds_before);
}

// --- journalfs: torn-write crash consistency ----------------------------------
// Both cases crash a store-attached JournalFs (kill -9 at the end of the
// image's write log) and remount a fresh stack over the image: the
// store's journal is the only recovery path, so these assert through the
// recovery report of the remount.

using JFs = fs::JournalFs<fs::RawPtrPolicy>;

store::StoreConfig crash_store_config() {
  store::StoreConfig cfg;
  cfg.data_blocks = 520;  // inode table (3) + bitmap (1) + 512 fs blocks
  cfg.journal_blocks = 256;
  return cfg;
}

/// One boot: a fresh cache, Store and JournalFs over the image at `path`.
/// A new image is formatted; an existing one is recovered.
struct JfsMount {
  blockdev::Disk disk{4096};
  blockdev::BufferCache cache{disk, 256};
  store::Store st;
  JFs jfs{/*max_inodes=*/128, /*data_blocks=*/512, /*journal_slots=*/256};

  explicit JfsMount(const std::string& path) {
    EXPECT_TRUE(st.open(path, crash_store_config()).ok());
    EXPECT_TRUE(jfs.attach_store(&st, &cache).ok());
  }

  /// Power loss right after the last logged image write.
  void crash() {
    ASSERT_TRUE(
        st.image().simulate_crash(st.image().pending_writes(), 0).ok());
  }
};

TEST_F(FaultTest, CrashRecoveryWithoutTearIsConsistent) {
  testutil::TempDir dir;
  const std::string path = dir.file("crash.img");
  {
    JfsMount m(path);
    JFs& jfs = m.jfs;
    m.st.image().enable_crash_capture();

    auto ino = jfs.create(jfs.root(), "a", fs::FileType::kRegular, 0644);
    ASSERT_TRUE(ino.ok());
    std::vector<std::byte> data(5000, std::byte{0x5a});
    ASSERT_TRUE(jfs.write(ino.value(), 0, data).ok());
    ASSERT_TRUE(
        jfs.create(jfs.root(), "d", fs::FileType::kDirectory, 0755).ok());
    ASSERT_TRUE(jfs.fsync(ino.value(), false).ok());
    m.crash();
  }
  JfsMount m(path);
  JFs& jfs = m.jfs;
  const store::GroupCommitJournal::ScanReport& scan =
      jfs.last_recovery().scan;
  EXPECT_FALSE(scan.torn);
  EXPECT_GT(scan.units_applied, 0u);
  EXPECT_TRUE(jfs.fsck().clean);
  // Everything before the crash was fsynced, so the whole history replays.
  EXPECT_TRUE(jfs.lookup(jfs.root(), "a").ok());
  EXPECT_TRUE(jfs.lookup(jfs.root(), "d").ok());
}

TEST_F(FaultTest, TornWritesNeverBreakConsistency) {
  // The R1 sweep in miniature: several seeds x several tear rates, a
  // mixed metadata+data workload, a crash after every schedule. The
  // invariant is consistency (fsck-clean), not durability of the tail.
  testutil::TempDir dir;
  const std::vector<std::byte> blob(3000, std::byte{0x77});
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    for (double p : {0.05, 0.25, 1.0}) {
      const std::string path = dir.file("torn-" + std::to_string(seed) +
                                        "-" + std::to_string(p) + ".img");
      {
        JfsMount m(path);
        JFs& jfs = m.jfs;
        m.st.image().enable_crash_capture();

        kf_.set_seed(seed);
        SiteConfig cfg;
        cfg.p = p;
        kf_.arm(Site::kDiskTorn, cfg);

        for (int i = 0; i < 8; ++i) {
          std::string name = testutil::numbered("f", i);
          auto ino =
              jfs.create(jfs.root(), name, fs::FileType::kRegular, 0644);
          if (ino.ok()) {
            (void)jfs.write(ino.value(), 0, blob);
          }
          if (i % 3 == 2) {
            (void)jfs.unlink(jfs.root(), testutil::numbered("f", i - 1));
          }
          // One commit unit per iteration: each is a chance to tear.
          (void)jfs.fsync(jfs.root(), false);
        }
        kf_.disarm_all();
        m.crash();
      }

      JfsMount m(path);
      JFs& jfs = m.jfs;
      const store::GroupCommitJournal::ScanReport& scan =
          jfs.last_recovery().scan;
      JFs::FsckReport chk = jfs.fsck();
      EXPECT_TRUE(chk.clean)
          << "seed=" << seed << " p=" << p << " torn=" << scan.torn
          << " first problem: "
          << (chk.problems.empty() ? "-" : chk.problems.front());
      if (p == 1.0) {
        // Every commit unit torn: recovery must have discarded work.
        EXPECT_TRUE(scan.torn);
      }
      // The filesystem is usable after recovery.
      auto post =
          jfs.create(jfs.root(), "after-crash", fs::FileType::kRegular, 0644);
      ASSERT_TRUE(post.ok());
      EXPECT_TRUE(jfs.write(post.value(), 0, blob).ok());
      EXPECT_TRUE(jfs.fsck().clean);
    }
  }
}

// --- EBADF-before-copy ordering regression ------------------------------------

class OrderingTest : public ::testing::Test {
 protected:
  OrderingTest() : kernel_(fs_), proc_(kernel_, "order") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }
  fs::MemFs fs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

TEST_F(OrderingTest, ReadChecksFdBeforeUserBuffer) {
  // Bad fd + bad buffer: the fd wins, and no copy work is charged.
  std::uint64_t copies = kernel_.boundary().stats().copies_to_user;
  EXPECT_EQ(proc_.read(999, nullptr, 16), sysret_err(Errno::kEBADF));
  int wr = proc_.open("/w", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(wr, 0);
  EXPECT_EQ(proc_.read(wr, nullptr, 16), sysret_err(Errno::kEBADF));
  EXPECT_EQ(kernel_.boundary().stats().copies_to_user, copies);
  proc_.close(wr);
}

TEST_F(OrderingTest, FstatChecksFdBeforeUserBuffer) {
  EXPECT_EQ(proc_.fstat(999, nullptr), sysret_err(Errno::kEBADF));
  int fd = proc_.open("/s", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.fstat(fd, nullptr), sysret_err(Errno::kEFAULT));
  proc_.close(fd);
}

TEST_F(OrderingTest, ReaddirChecksFdBeforeUserBuffer) {
  EXPECT_EQ(proc_.readdir(999, nullptr, 256), sysret_err(Errno::kEBADF));
  ASSERT_EQ(proc_.mkdir("/dir"), 0);
  int fd = proc_.open("/dir", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.readdir(fd, nullptr, 256), sysret_err(Errno::kEFAULT));
  proc_.close(fd);
}

TEST_F(OrderingTest, WriteChecksFdBeforeCopyIn) {
  // A bad fd must not charge the user->kernel copy. (The opens in between
  // copy their path strings, so re-snapshot the counter before each write.)
  char buf[64] = {};
  std::uint64_t copies = kernel_.boundary().stats().copies_from_user;
  EXPECT_EQ(proc_.write(999, buf, sizeof buf), sysret_err(Errno::kEBADF));
  EXPECT_EQ(kernel_.boundary().stats().copies_from_user, copies);
  int rd = proc_.open("/ro", fs::kOWrOnly | fs::kOCreat);
  proc_.close(rd);
  rd = proc_.open("/ro", fs::kORdOnly);
  ASSERT_GE(rd, 0);
  copies = kernel_.boundary().stats().copies_from_user;
  EXPECT_EQ(proc_.write(rd, buf, sizeof buf), sysret_err(Errno::kEBADF));
  EXPECT_EQ(kernel_.boundary().stats().copies_from_user, copies);
  proc_.close(rd);
}

// --- the numbered gateway -----------------------------------------------------

TEST_F(OrderingTest, UnknownSyscallNumberIsEnosys) {
  // Holes in the table -- a number without a signature, and cosy, whose
  // entry point is CosyExtension::execute rather than a table handler --
  // and out-of-range numbers all get ENOSYS through the one gateway.
  EXPECT_EQ(kernel_.syscall(proc_.process(), static_cast<uk::Sys>(40)),
            sysret_err(Errno::kENOSYS));
  EXPECT_EQ(kernel_.syscall(proc_.process(), uk::Sys::kCosy),
            sysret_err(Errno::kENOSYS));
  EXPECT_EQ(kernel_.syscall(proc_.process(), static_cast<uk::Sys>(63)),
            sysret_err(Errno::kENOSYS));
}

TEST_F(OrderingTest, RawGatewayMatchesTypedWrapper) {
  uk::Kernel::SysArgs a;
  a.a0 = uk::Kernel::uarg("/gw");
  a.a1 = static_cast<std::uint64_t>(fs::kOWrOnly | fs::kOCreat);
  a.a2 = 0644;
  int fd =
      static_cast<int>(kernel_.syscall(proc_.process(), uk::Sys::kOpen, a));
  ASSERT_GE(fd, 0);
  EXPECT_EQ(kernel_.syscall(proc_.process(), uk::Sys::kGetpid),
            proc_.getpid());
  uk::Kernel::SysArgs cl;
  cl.a0 = static_cast<std::uint64_t>(fd);
  EXPECT_EQ(kernel_.syscall(proc_.process(), uk::Sys::kClose, cl), 0);
}

// --- /proc/fail ---------------------------------------------------------------

TEST_F(FaultTest, ProcFailControlFiles) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "procfail");
  kernel.mount_procfs();

  // Arm through the file, exactly as a user would: echo spec > /proc/...
  int fd = proc.open("/proc/fail/spec", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  const char spec[] = "kmalloc:p=1\n";
  ASSERT_EQ(proc.write(fd, spec, sizeof(spec) - 1),
            static_cast<SysRet>(sizeof(spec) - 1));
  proc.close(fd);
  EXPECT_TRUE(kernel.kfail().site_armed(Site::kKmalloc));

  // A bad spec is rejected with EINVAL at the write().
  fd = proc.open("/proc/fail/spec", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc.write(fd, "bogus:p=1", 9), sysret_err(Errno::kEINVAL));
  proc.close(fd);

  // Drive the armed site, then read the stats file back.
  (void)USK_FAIL_POINT_IN(&kernel.kfail(), Site::kKmalloc);
  fd = proc.open("/proc/fail/stats", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  char buf[2048] = {};
  ASSERT_GT(proc.read(fd, buf, sizeof buf - 1), 0);
  proc.close(fd);
  EXPECT_NE(std::string(buf).find("kmalloc"), std::string::npos);

  // Seed file: write round-trips into the injector.
  fd = proc.open("/proc/fail/seed", fs::kOWrOnly);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(proc.write(fd, "777\n", 4), 4);
  proc.close(fd);
  EXPECT_EQ(kernel.kfail().seed(), 777u);
}

}  // namespace
}  // namespace usk
