// Tests for /proc ownership: every file and metric family a subsystem
// registers through an fs::ProcFs::Registration leaves with its owner,
// while the Kernel (and its ProcFs) lives on.
//
// After an owner is destroyed, opening each of its files is ENOENT, its
// directory no longer lists them and /proc/metrics has none of its
// families; a renderer that outlived its owner would read freed memory,
// which the AddressSanitizer build reports (these tests run there through
// the `faults` label). A removed path keeps its inode, so registering it
// again works through a warm VFS dcache. A second live owner of a path or
// family name is refused with EEXIST. One open and read of a file renders
// it once. The Smp test races /proc readers against owner teardown under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "fs/memfs.hpp"
#include "fs/procfs.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "store/store.hpp"
#include "sup/slo.hpp"
#include "sup/supervisor.hpp"
#include "uk/kernel.hpp"
#include "uk/kproc.hpp"
#include "uk/userlib.hpp"

#include "temp_dir.hpp"

namespace usk {
namespace {

/// The text of `path` as `p` reads it, or the errno that stopped the read.
struct ReadResult {
  Errno err = Errno::kOk;
  std::string text;
};

ReadResult read_proc(uk::Proc& p, const char* path) {
  ReadResult r;
  const int fd = p.open(path, fs::kORdOnly);
  if (fd < 0) {
    r.err = static_cast<Errno>(-fd);
    return r;
  }
  char buf[1024];
  SysRet n;
  while ((n = p.read(fd, buf, sizeof buf)) > 0) {
    r.text.append(buf, static_cast<std::size_t>(n));
  }
  if (n < 0) r.err = static_cast<Errno>(-n);
  p.close(fd);
  return r;
}

class ProcLifetime : public ::testing::Test {
 protected:
  ProcLifetime()
      : kernel_(fs_), pfs_(kernel_.mount_procfs()), proc_(kernel_, "reader") {}

  /// Names `dir` lists.
  std::vector<std::string> list(const char* dir) {
    std::vector<std::string> names;
    for (const uk::UserDirent& d : proc_.list_dir(dir)) {
      names.push_back(d.name);
    }
    return names;
  }

  bool listed(const char* dir, const std::string& name) {
    for (const std::string& n : list(dir)) {
      if (n == name) return true;
    }
    return false;
  }

  std::string metrics() { return read_proc(proc_, "/proc/metrics").text; }

  /// Every one of `files` (under `dir`) opens and renders something.
  void expect_live(const char* dir, const std::vector<std::string>& files) {
    for (const std::string& f : files) {
      const std::string path = std::string(dir) + "/" + f;
      const ReadResult r = read_proc(proc_, path.c_str());
      EXPECT_EQ(r.err, Errno::kOk) << path;
      EXPECT_FALSE(r.text.empty()) << path;
      EXPECT_TRUE(listed(dir, f)) << path;
    }
  }

  /// Every one of `files` is gone: ENOENT on open, absent from readdir.
  void expect_gone(const char* dir, const std::vector<std::string>& files) {
    for (const std::string& f : files) {
      const std::string path = std::string(dir) + "/" + f;
      EXPECT_EQ(proc_.open(path.c_str(), fs::kORdOnly),
                sysret_err(Errno::kENOENT))
          << path;
      fs::StatBuf st;
      EXPECT_EQ(proc_.stat(path.c_str(), &st), sysret_err(Errno::kENOENT))
          << path;
      EXPECT_FALSE(listed(dir, f)) << path;
    }
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  fs::ProcFs& pfs_;
  uk::Proc proc_;
};

TEST_F(ProcLifetime, SupervisorFilesLeaveWithTheSupervisor) {
  const std::vector<std::string> files = {"extensions", "quotas", "events"};
  {
    sup::Supervisor s(kernel_);
    ASSERT_EQ(s.register_proc(pfs_), Errno::kOk);
    s.register_extension("gone.sup", sup::Vehicle::kCosy);
    expect_live("/proc/sup", files);
    EXPECT_NE(read_proc(proc_, "/proc/sup/extensions").text.find("gone.sup"),
              std::string::npos);
  }
  expect_gone("/proc/sup", files);
  EXPECT_EQ(metrics().find("gone.sup"), std::string::npos);
}

TEST_F(ProcLifetime, SloMonitorFileAndFamiliesLeaveWithTheMonitor) {
  sup::Supervisor s(kernel_);
  const sup::ExtId id = s.register_extension("gone.slo", sup::Vehicle::kCosy);
  {
    sup::SloMonitor mon(s);
    ASSERT_EQ(mon.register_proc(pfs_), Errno::kOk);
    mon.observe(id, 1'000, true);
    expect_live("/proc/sup", {"slo"});
    const std::string live = metrics();
    EXPECT_NE(live.find("# TYPE usk_ext_latency_ns summary"),
              std::string::npos)
        << live;
    EXPECT_NE(live.find("# TYPE usk_slo_breaches_total gauge"),
              std::string::npos)
        << live;
  }
  expect_gone("/proc/sup", {"slo"});
  const std::string prom = metrics();
  EXPECT_EQ(prom.find("usk_ext_latency_ns"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("usk_slo_breaches_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("usk_syscall_latency_ns"), std::string::npos) << prom;
}

TEST_F(ProcLifetime, NetFilesLeaveWithTheNet) {
  const std::vector<std::string> files = {"stats", "sockets", "listeners"};
  {
    net::Net net(kernel_);
    ASSERT_EQ(net.register_proc(pfs_), Errno::kOk);
    expect_live("/proc/net", files);
  }
  expect_gone("/proc/net", files);
  EXPECT_TRUE(list("/proc/net").empty());
}

TEST_F(ProcLifetime, RingFilesLeaveWithTheRingDev) {
  const std::vector<std::string> files = {"stats"};
  {
    ring::RingDev rdev(kernel_);
    ASSERT_EQ(rdev.register_proc(pfs_), Errno::kOk);
    expect_live("/proc/ring", files);
    EXPECT_TRUE(listed("/proc/ring", "rings"));
  }
  expect_gone("/proc/ring", {"stats", "rings"});
  EXPECT_TRUE(list("/proc/ring").empty());
}

TEST_F(ProcLifetime, StorageFilesAndGaugesLeaveWithTheirRegistration) {
  testutil::TempDir dir;
  const char* families[] = {"usk_cache_hits",
                            "usk_cache_misses",
                            "usk_cache_writebacks",
                            "usk_cache_bg_writebacks",
                            "usk_cache_dirty_blocks",
                            "usk_cache_gate_rejects",
                            "usk_store_checkpoints",
                            "usk_store_stable_seq",
                            "usk_store_image_fsyncs",
                            "usk_journal_commit_units",
                            "usk_journal_txns_committed",
                            "usk_journal_txns_per_flush_x100"};
  {
    blockdev::Disk disk(64);
    blockdev::BufferCache cache(disk, 16);
    store::StoreConfig cfg;
    cfg.data_blocks = 16;
    cfg.journal_blocks = 8;
    store::Store st;
    ASSERT_TRUE(st.open(dir.file("proc_life.img"), cfg).ok());
    const fs::ProcFs::Registration reg =
        uk::register_storage_proc(pfs_, &st, &cache);
    ASSERT_EQ(reg.status(), Errno::kOk);
    expect_live("/proc/blockdev", {"cache"});
    expect_live("/proc/store", {"stats", "journal"});
    const std::string live = metrics();
    for (const char* f : families) {
      EXPECT_NE(live.find(std::string("# TYPE ") + f + " gauge"),
                std::string::npos)
          << f;
    }
    st.close();
  }
  expect_gone("/proc/blockdev", {"cache"});
  expect_gone("/proc/store", {"stats", "journal"});
  const std::string prom = metrics();
  for (const char* f : families) {
    EXPECT_EQ(prom.find(f), std::string::npos) << f;
  }
  EXPECT_NE(prom.find("usk_sched_steals"), std::string::npos) << prom;
}

TEST_F(ProcLifetime, ReRegisteredPathIsFoundThroughAWarmDcache) {
  fs::ProcFs::Registration reg(pfs_);
  reg.add_file("/test/value", [] { return std::string("first\n"); });
  ASSERT_EQ(reg.status(), Errno::kOk);
  // The read walks /proc/test/value and leaves it in the dcache.
  EXPECT_EQ(read_proc(proc_, "/proc/test/value").text, "first\n");
  fs::StatBuf before;
  ASSERT_EQ(proc_.stat("/proc/test/value", &before), 0);

  reg = fs::ProcFs::Registration();
  EXPECT_EQ(read_proc(proc_, "/proc/test/value").err, Errno::kENOENT);

  reg = fs::ProcFs::Registration(pfs_);
  reg.add_file("/test/value", [] { return std::string("second\n"); });
  ASSERT_EQ(reg.status(), Errno::kOk);
  EXPECT_EQ(read_proc(proc_, "/proc/test/value").text, "second\n");
  fs::StatBuf after;
  ASSERT_EQ(proc_.stat("/proc/test/value", &after), 0);
  EXPECT_EQ(after.ino, before.ino);  // the dcache's entry is still right
}

TEST_F(ProcLifetime, OneOpenAndReadRendersOnce) {
  // The read at offset 0 is the only render: opening the file does not
  // generate text that the first read would throw away.
  int renders = 0;
  fs::ProcFs::Registration reg(pfs_);
  reg.add_file("/test/counted", [&renders] {
    ++renders;
    return std::string("counted\n");
  });
  ASSERT_EQ(reg.status(), Errno::kOk);
  EXPECT_EQ(read_proc(proc_, "/proc/test/counted").text, "counted\n");
  EXPECT_EQ(renders, 1);
}

TEST_F(ProcLifetime, ARemovedFileNameCanBecomeADirectory) {
  {
    fs::ProcFs::Registration file(pfs_);
    file.add_file("/test/node", [] { return std::string("file\n"); });
    EXPECT_EQ(read_proc(proc_, "/proc/test/node").text, "file\n");
  }
  fs::ProcFs::Registration tree(pfs_);
  tree.add_file("/test/node/leaf", [] { return std::string("leaf\n"); });
  ASSERT_EQ(tree.status(), Errno::kOk);
  EXPECT_EQ(read_proc(proc_, "/proc/test/node/leaf").text, "leaf\n");
  EXPECT_TRUE(listed("/proc/test/node", "leaf"));
  // A live file is not a directory: nothing is registered beneath it.
  fs::ProcFs::Registration under(pfs_);
  under.add_file("/test/node/leaf/x", [] { return std::string(); });
  EXPECT_EQ(under.status(), Errno::kENOTDIR);
}

TEST_F(ProcLifetime, DuplicatePathOrFamilyIsRefusedAndLeavesNothing) {
  fs::ProcFs::Registration first(pfs_);
  first.add_file("/test/a", [] { return std::string("a\n"); });
  first.add_gauges("usk_test_value", "test", nullptr, [] {
    return fs::ProcFs::Rows<std::int64_t>{{std::string(), 7}};
  });
  ASSERT_EQ(first.status(), Errno::kOk);

  // The second registers /test/b, then hits the held family: it takes
  // /test/b off again and ignores the rest.
  fs::ProcFs::Registration second(pfs_);
  second.add_file("/test/b", [] { return std::string("b\n"); });
  second.add_gauges("usk_test_value", "test", nullptr, [] {
    return fs::ProcFs::Rows<std::int64_t>{{std::string(), 9}};
  });
  second.add_file("/test/c", [] { return std::string("c\n"); });
  EXPECT_EQ(second.status(), Errno::kEEXIST);
  expect_gone("/proc/test", {"b", "c"});
  EXPECT_NE(metrics().find("usk_test_value 7\n"), std::string::npos);

  // A path held by the Kernel's own tree, or by another registration.
  fs::ProcFs::Registration third(pfs_);
  third.add_file("/metrics", [] { return std::string(); });
  EXPECT_EQ(third.status(), Errno::kEEXIST);
  fs::ProcFs::Registration fourth(pfs_);
  fourth.add_file("/test/a", [] { return std::string(); });
  EXPECT_EQ(fourth.status(), Errno::kEEXIST);
  EXPECT_EQ(read_proc(proc_, "/proc/test/a").text, "a\n");
  // A permanent family name is held too.
  fs::ProcFs::Registration fifth(pfs_);
  fifth.add_gauges("usk_sched_steals", "dup", nullptr, [] {
    return fs::ProcFs::Rows<std::int64_t>{};
  });
  EXPECT_EQ(fifth.status(), Errno::kEEXIST);
  EXPECT_EQ(metrics().find("dup\n"), std::string::npos);
}

TEST_F(ProcLifetime, SecondSloMonitorIsRefusedUntilTheFirstGoes) {
  sup::Supervisor sa(kernel_);
  sup::Supervisor sb(kernel_);
  const sup::ExtId xa = sa.register_extension("first", sup::Vehicle::kCosy);
  const sup::ExtId xb = sb.register_extension("second", sup::Vehicle::kCosy);
  auto first = std::make_unique<sup::SloMonitor>(sa);
  sup::SloMonitor second(sb);
  ASSERT_EQ(first->register_proc(pfs_), Errno::kOk);
  EXPECT_EQ(second.register_proc(pfs_), Errno::kEEXIST);
  first->observe(xa, 1'000, true);
  second.observe(xb, 1'000, true);

  // The first monitor's series are intact and the second's are nowhere.
  std::string prom = metrics();
  EXPECT_NE(prom.find("usk_ext_latency_ns_count{extension=\"first\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("extension=\"second\""), std::string::npos) << prom;
  EXPECT_NE(read_proc(proc_, "/proc/sup/slo").text.find("first"),
            std::string::npos);

  first.reset();
  ASSERT_EQ(second.register_proc(pfs_), Errno::kOk);
  prom = metrics();
  EXPECT_NE(prom.find("usk_ext_latency_ns_count{extension=\"second\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("extension=\"first\""), std::string::npos) << prom;
  const std::string slo = read_proc(proc_, "/proc/sup/slo").text;
  EXPECT_NE(slo.find("second"), std::string::npos) << slo;
  EXPECT_EQ(slo.find("first"), std::string::npos) << slo;
}

// Readers race the teardown of the SloMonitor and then the Supervisor.
// Every read sees either rendered text or ENOENT, never a dead owner.
TEST_F(ProcLifetime, SmpReadersRaceOwnerTeardown) {
  auto s = std::make_unique<sup::Supervisor>(kernel_);
  auto mon = std::make_unique<sup::SloMonitor>(*s);
  ASSERT_EQ(s->register_proc(pfs_), Errno::kOk);
  ASSERT_EQ(mon->register_proc(pfs_), Errno::kOk);
  const sup::ExtId id = s->register_extension("racer", sup::Vehicle::kCosy);
  mon->observe(id, 1'000, true);

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    uk::Proc p(kernel_, "racer");
    while (!stop.load(std::memory_order_acquire)) {
      for (const char* path : {"/proc/sup/extensions", "/proc/metrics"}) {
        const ReadResult r = read_proc(p, path);
        const bool ok = r.err == Errno::kOk ? !r.text.empty()
                                            : r.err == Errno::kENOENT;
        if (!ok) bad.fetch_add(1);
      }
      reads.fetch_add(1, std::memory_order_release);
    }
  });
  const auto wait_reads = [&](int more) {
    const int target = reads.load(std::memory_order_acquire) + more;
    while (reads.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  };
  wait_reads(20);
  mon.reset();
  wait_reads(20);
  s.reset();
  wait_reads(20);
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(read_proc(proc_, "/proc/sup/extensions").err, Errno::kENOENT);
  EXPECT_EQ(metrics().find("usk_ext_latency_ns"), std::string::npos);
}

}  // namespace
}  // namespace usk
