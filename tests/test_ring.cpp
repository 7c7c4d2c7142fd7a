// Tests for kring, the batched-submission third vehicle: the numbered
// gateway plumbing, single-crossing drain accounting, linked-chain
// cancel-on-error + fd rollback, queue backpressure/overflow policy,
// close-with-inflight semantics, deterministic fault injection at the
// ring sites, supervised quarantine -> classic decomposition, the
// parked min_complete wait, and a TSan-targeted MT stress run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/kfail.hpp"
#include "fs/procfs.hpp"
#include "net/net.hpp"
#include "numbered.hpp"
#include "ring/ring.hpp"
#include "sup/supervisor.hpp"
#include "uk/userlib.hpp"

namespace usk::ring {
namespace {

class RingTest : public ::testing::Test {
 protected:
  RingTest()
      : kernel_(fs_), net_(kernel_), rdev_(kernel_),
        proc_(kernel_, "ring-test") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  uk::Process& p() { return proc_.process(); }

  /// Ring fd + mapping with `entries` SQ slots over an `arena`-byte pool.
  struct Mapped {
    int fd = -1;
    std::shared_ptr<Ring> rg;
  };
  Mapped make_ring(std::uint32_t entries = 32, std::uint32_t arena = 8192) {
    Mapped m;
    m.fd = static_cast<int>(rdev_.sys_ring_setup(p(), entries, arena));
    EXPECT_GE(m.fd, 0);
    auto r = rdev_.user_map(p(), m.fd);
    EXPECT_TRUE(r.ok());
    m.rg = r.value();
    return m;
  }

  /// Write a NUL-terminated path into the arena at `off`.
  void put_path(Ring& rg, std::uint64_t off, const std::string& s) {
    std::byte* d = rg.user_data(off, s.size() + 1);
    EXPECT_NE(d, nullptr);
    std::memcpy(d, s.c_str(), s.size() + 1);
  }

  std::vector<Cqe> reap_all(Ring& rg) {
    std::vector<Cqe> out;
    Cqe buf[64];
    std::size_t n;
    while ((n = rg.user_reap(buf, 64)) > 0) out.insert(out.end(), buf, buf + n);
    return out;
  }

  static SysRet res_of(const std::vector<Cqe>& cqes, std::uint64_t ud) {
    for (const Cqe& c : cqes) {
      if (c.user_data == ud) return c.res;
    }
    return std::numeric_limits<SysRet>::min();  // no such completion
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  net::Net net_;
  RingDev rdev_;
  uk::Proc proc_;
};

// --- gateway + setup ---------------------------------------------------------

TEST_F(RingTest, SetupAndEnterThroughNumberedGateway) {
  SysRet fd = kernel_.syscall(p(), uk::Sys::kRingSetup, {8, 1024, 0, 0});
  ASSERT_GE(fd, 0);
  // An empty enter through the raw gateway: no SQEs, no wait.
  EXPECT_EQ(kernel_.syscall(p(), uk::Sys::kRingEnter,
                            {static_cast<std::uint64_t>(fd), RingDev::kDrainAll,
                             0, 0}),
            0);
  // Non-ring fds (and nonsense fds) are EBADF.
  int plain = proc_.open("/plain", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(plain, 0);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), plain, RingDev::kDrainAll, 0, 0),
            sysret_err(Errno::kEBADF));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), 999, RingDev::kDrainAll, 0, 0),
            sysret_err(Errno::kEBADF));
  proc_.close(plain);
  EXPECT_EQ(proc_.close(static_cast<int>(fd)), 0);
}

TEST_F(RingTest, SetupValidation) {
  EXPECT_EQ(rdev_.sys_ring_setup(p(), 0, 1024), sysret_err(Errno::kEINVAL));
  EXPECT_EQ(rdev_.sys_ring_setup(
                p(), static_cast<std::uint32_t>(RingDev::kMaxSqEntries) + 1,
                1024),
            sysret_err(Errno::kEINVAL));
  EXPECT_EQ(rdev_.sys_ring_setup(
                p(), 8, static_cast<std::uint32_t>(RingDev::kMaxDataBytes) + 1),
            sysret_err(Errno::kEINVAL));
  // Entries round up to a power of two; CQ gets twice the SQ.
  Mapped m = make_ring(5, 256);
  EXPECT_EQ(m.rg->sq_capacity(), 8u);
  EXPECT_EQ(m.rg->cq_capacity(), 16u);
  // min_complete beyond the CQ can never be satisfied: EINVAL.
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, 0, 17, -1),
            sysret_err(Errno::kEINVAL));
  proc_.close(m.fd);
}

// --- crossing + copy accounting ----------------------------------------------

TEST_F(RingTest, OneCrossingPerEnterAndCopyAttribution) {
  Mapped m = make_ring(32, 8192);
  int fd = proc_.open("/f", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  char payload[512];
  std::memset(payload, 0x5A, sizeof payload);
  ASSERT_EQ(proc_.write(fd, payload, sizeof payload),
            static_cast<SysRet>(sizeof payload));
  proc_.close(fd);
  int rfd = proc_.open("/f", fs::kORdOnly);
  ASSERT_GE(rfd, 0);

  // 6 reads, one ring_enter: exactly ONE crossing for all six, while the
  // copy counters still attribute every byte the ops moved.
  for (std::uint64_t i = 0; i < 6; ++i) {
    Sqe s{};
    s.user_data = i;
    s.nr = uk::Sys::kRead;
    s.args = {uk::Kernel::iarg(rfd), i * 64, 64};
    ASSERT_TRUE(m.rg->user_prepare(s));
  }
  const std::uint64_t sys0 = proc_.task().syscalls;
  const std::uint64_t out0 = proc_.task().bytes_to_user;
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 6);
  EXPECT_EQ(proc_.task().syscalls - sys0, 1u);
  EXPECT_EQ(proc_.task().bytes_to_user - out0, 6u * 64u);

  std::vector<Cqe> cqes = reap_all(*m.rg);
  ASSERT_EQ(cqes.size(), 6u);
  for (const Cqe& c : cqes) EXPECT_EQ(c.res, 64);
  // The bytes really landed in the shared arena.
  for (std::size_t i = 0; i < 6 * 64; ++i) {
    EXPECT_EQ(std::to_integer<int>(*m.rg->user_data(i, 1)), 0x5A);
  }
  proc_.close(rfd);
  proc_.close(m.fd);
}

TEST_F(RingTest, ShortReadLeavesTheRestOfTheCallerBufferUntouched) {
  // A 10-byte file read into a 4 KiB buffer: only the 10 bytes the read
  // produced reach the caller, classic and ring alike.
  constexpr std::size_t kBuf = 4096;
  int fd = proc_.open("/short", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(proc_.write(fd, "0123456789", 10), 10);
  proc_.close(fd);
  auto untouched_after_10 = [](const std::byte* b) {
    for (std::size_t i = 10; i < kBuf; ++i) {
      if (std::to_integer<int>(b[i]) != 0xC5) return false;
    }
    return std::memcmp(b, "0123456789", 10) == 0;
  };

  std::vector<std::byte> buf(kBuf, std::byte{0xC5});
  fd = proc_.open("/short", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc_.read(fd, buf.data(), kBuf), 10);
  EXPECT_TRUE(untouched_after_10(buf.data()));
  proc_.close(fd);

  Mapped m = make_ring(8, kBuf);
  std::memset(m.rg->user_data(0, kBuf), 0xC5, kBuf);
  fd = proc_.open("/short", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  Sqe s{};
  s.nr = uk::Sys::kRead;
  s.args = {uk::Kernel::iarg(fd), 0, kBuf};
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 1);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].res, 10);
  EXPECT_TRUE(untouched_after_10(m.rg->user_data(0, kBuf)));
  proc_.close(fd);
  proc_.close(m.fd);
}

// --- errno ordering through the drain (satellite: handler audit) -------------

TEST_F(RingTest, EbadfBeforeEfaultThroughDrain) {
  Mapped m = make_ring(8, 256);
  // Bad fd AND an out-of-arena buffer: the descriptor check must win,
  // exactly as it does through the classic gateway.
  std::uint64_t ud = 0;
  for (uk::Sys nr :
       {uk::Sys::kRead, uk::Sys::kWrite, uk::Sys::kRecv, uk::Sys::kSend}) {
    Sqe s{};
    s.user_data = ud++;
    s.nr = nr;
    // No such descriptor, and a buffer far outside the 256-byte arena
    // (-> nullptr).
    s.args = {777, 1 << 20, 64};
    ASSERT_TRUE(m.rg->user_prepare(s));
  }
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 4);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  ASSERT_EQ(cqes.size(), 4u);
  for (const Cqe& c : cqes) {
    EXPECT_EQ(c.res, sysret_err(Errno::kEBADF)) << "ud=" << c.user_data;
  }
  // Same ops with a VALID fd and the bad buffer: now EFAULT surfaces
  // (read/write on a real file; ENOTSOCK for the socket ops wins first).
  int fd = proc_.open("/e", fs::kORdWr | fs::kOCreat);
  ASSERT_GE(fd, 0);
  Sqe s{};
  s.user_data = 90;
  s.nr = uk::Sys::kWrite;
  s.args = {uk::Kernel::iarg(fd), 1 << 20, 64};
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 1);
  std::vector<Cqe> c2 = reap_all(*m.rg);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(c2[0].res, sysret_err(Errno::kEFAULT));
  proc_.close(fd);
  proc_.close(m.fd);
}

// --- backpressure / overflow -------------------------------------------------

TEST_F(RingTest, SqBackpressureWhenFull) {
  Mapped m = make_ring(8, 256);
  Sqe s{};
  for (std::uint64_t i = 0; i < 8; ++i) {
    s.user_data = i;
    EXPECT_TRUE(m.rg->user_prepare(s));
  }
  // SQ full: submission backpressure, nothing lost.
  s.user_data = 99;
  EXPECT_FALSE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 8);
  EXPECT_TRUE(m.rg->user_prepare(s));  // space again after the drain
  proc_.close(m.fd);
}

TEST_F(RingTest, CqOverflowStallsDrainInsteadOfDroppping) {
  Mapped m = make_ring(8, 256);  // CQ = 16, max_chain = 8
  auto submit_nops = [&](std::uint64_t base, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Sqe s{};
      s.user_data = base + i;
      ASSERT_TRUE(m.rg->user_prepare(s));
    }
  };
  // First batch fills half the CQ; nothing is reaped.
  submit_nops(0, 8);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 8);
  // Second batch: the drain needs max_chain free slots per chain, so it
  // posts exactly one more CQE (16 - 8 - 1 < 8) and then stalls --
  // the rest STAY QUEUED, no completion is dropped.
  submit_nops(100, 8);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 1);
  EXPECT_GE(m.rg->stats().cq_backpressure, 1u);
  // Reaping opens space; the next enter drains the remainder.
  EXPECT_EQ(reap_all(*m.rg).size(), 9u);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 7);
  EXPECT_EQ(reap_all(*m.rg).size(), 7u);
  EXPECT_EQ(m.rg->stats().cqes_posted, 16u);
  proc_.close(m.fd);
}

// --- close semantics ---------------------------------------------------------

TEST_F(RingTest, CloseWithInflightCancelsQueuedSqes) {
  Mapped m = make_ring(8, 256);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Sqe s{};
    s.user_data = i;
    ASSERT_TRUE(m.rg->user_prepare(s));
  }
  EXPECT_EQ(proc_.close(m.fd), 0);
  EXPECT_TRUE(m.rg->closed());
  // The mapping outlives the fd (mmap semantics): queued SQEs complete
  // with -ECANCELED so a reaper sees every submission resolved.
  std::vector<Cqe> cqes = reap_all(*m.rg);
  ASSERT_EQ(cqes.size(), 5u);
  for (const Cqe& c : cqes) EXPECT_EQ(c.res, sysret_err(Errno::kECANCELED));
  // The fd is gone: further enters are EBADF, the table forgot the ring.
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0),
            sysret_err(Errno::kEBADF));
  EXPECT_EQ(rdev_.live_rings(), 0u);
  // Its counters fold into the retired aggregate.
  EXPECT_GE(rdev_.total_stats().cqes_canceled, 5u);
}

TEST_F(RingTest, DupHoldsRingOpen) {
  Mapped m = make_ring(8, 256);
  int d = proc_.dup(m.fd);
  ASSERT_GE(d, 0);
  EXPECT_EQ(proc_.close(m.fd), 0);
  EXPECT_FALSE(m.rg->closed());  // the dup still references it
  Sqe s{};
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), d, RingDev::kDrainAll, 0, 0), 1);
  EXPECT_EQ(proc_.close(d), 0);
  EXPECT_TRUE(m.rg->closed());
}

// --- the fd-object tables ----------------------------------------------------
// Sockets, epoll instances and rings all sit behind the fd table; each
// kind's calls refuse the other kinds' descriptors with their own errno.

TEST_F(RingTest, EveryFdKindRefusesTheOthersWithItsOwnErrno) {
  const int sock = static_cast<int>(net_.sys_socket(p()));
  const int ep = static_cast<int>(net_.sys_epoll_create(p()));
  Mapped m = make_ring(8, 256);
  ASSERT_GE(sock, 0);
  ASSERT_GE(ep, 0);
  char c = 'x';
  net::EpollEvent evs[2];
  for (const int fd : {ep, m.fd}) {
    SCOPED_TRACE(fd == ep ? "epoll fd" : "ring fd");
    // Socket calls: ENOTSOCK, including epoll_ctl's watched fd.
    const SysRet notsock = sysret_err(Errno::kENOTSOCK);
    EXPECT_EQ(net_.sys_send(p(), fd, &c, 1), notsock);
    EXPECT_EQ(net_.sys_recv(p(), fd, &c, 1), notsock);
    EXPECT_EQ(net_.sys_bind(p(), fd, 7400), notsock);
    EXPECT_EQ(net_.sys_listen(p(), fd, 4), notsock);
    EXPECT_EQ(net_.sys_accept(p(), fd), notsock);
    EXPECT_EQ(net_.sys_connect(p(), fd, 7400), notsock);
    EXPECT_EQ(net_.sys_shutdown(p(), fd, net::kShutRdWr), notsock);
    EXPECT_EQ(net_.sys_epoll_ctl(p(), ep, net::kEpollCtlAdd, fd, net::kEpollIn),
              notsock);
    // Neither kind is a byte stream: read(2)/write(2) are EINVAL.
    EXPECT_EQ(proc_.read(fd, &c, 1), sysret_err(Errno::kEINVAL));
    EXPECT_EQ(proc_.write(fd, &c, 1), sysret_err(Errno::kEINVAL));
  }
  for (const int fd : {sock, m.fd}) {
    SCOPED_TRACE(fd == sock ? "socket fd" : "ring fd");
    // Epoll calls on anything but an epoll fd: EINVAL.
    EXPECT_EQ(net_.sys_epoll_ctl(p(), fd, net::kEpollCtlAdd, sock,
                                 net::kEpollIn),
              sysret_err(Errno::kEINVAL));
    EXPECT_EQ(net_.sys_epoll_wait(p(), fd, evs, 2, 0),
              sysret_err(Errno::kEINVAL));
  }
  for (const int fd : {sock, ep}) {
    SCOPED_TRACE(fd == sock ? "socket fd" : "epoll fd");
    // Ring calls on anything but a ring fd: EBADF.
    EXPECT_EQ(rdev_.sys_ring_enter(p(), fd, RingDev::kDrainAll, 0, 0),
              sysret_err(Errno::kEBADF));
    EXPECT_EQ(rdev_.user_map(p(), fd).error(), Errno::kEBADF);
  }
  // fstat: a socket reports its queue, a ring its completions; an epoll
  // instance has no attributes (EINVAL).
  fs::StatBuf st;
  EXPECT_EQ(proc_.fstat(sock, &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kSocket);
  EXPECT_EQ(proc_.fstat(m.fd, &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kRegular);
  EXPECT_EQ(proc_.fstat(ep, &st), sysret_err(Errno::kEINVAL));
  proc_.close(m.fd);
  proc_.close(ep);
  proc_.close(sock);
}

// A full fd table refuses each fd-bound object after it was registered:
// the registration is undone, so the tables and /proc rows read as
// before. The refused accept drops its queued connection, whose client
// then reads EOF.
TEST_F(RingTest, EmfileLeavesNoFdObjectBehind) {
  const int lfd = static_cast<int>(net_.sys_socket(p()));
  ASSERT_EQ(net_.sys_bind(p(), lfd, 7401), 0);
  ASSERT_EQ(net_.sys_listen(p(), lfd, 4), 0);
  const int cli = static_cast<int>(net_.sys_socket(p()));
  ASSERT_EQ(net_.sys_connect(p(), cli, 7401), 0);  // queued, not accepted
  Mapped m = make_ring(8, 256);
  ASSERT_EQ(net_.live_sockets(), 3u);  // listener, client, queued conn
  ASSERT_EQ(rdev_.live_rings(), 1u);

  const int file = proc_.open("/emfile", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(file, 0);
  std::vector<int> fill;
  for (int d; (d = proc_.dup(file)) >= 0;) fill.push_back(d);
  ASSERT_EQ(proc_.dup(file), sysret_err(Errno::kEMFILE));

  const std::string sockets0 = net_.format_sockets();
  const std::string rings0 = rdev_.format_rings();
  const RingStats stats0 = rdev_.total_stats();
  const SysRet emfile = sysret_err(Errno::kEMFILE);
  EXPECT_EQ(net_.sys_socket(p()), emfile);
  EXPECT_EQ(net_.sys_epoll_create(p()), emfile);
  EXPECT_EQ(rdev_.sys_ring_setup(p(), 8, 256), emfile);
  EXPECT_EQ(net_.live_sockets(), 3u);
  EXPECT_EQ(rdev_.live_rings(), 1u);
  EXPECT_EQ(net_.format_sockets(), sockets0);
  EXPECT_EQ(rdev_.format_rings(), rings0);
  EXPECT_EQ(rdev_.total_stats().enters, stats0.enters);

  EXPECT_EQ(net_.sys_accept(p(), lfd), emfile);
  EXPECT_EQ(net_.live_sockets(), 2u);  // the refused connection is gone
  EXPECT_EQ(net_.stats().conns_accepted, 0u);

  for (int d : fill) proc_.close(d);
  proc_.close(file);
  char buf[8];
  EXPECT_EQ(net_.sys_recv(p(), cli, buf, sizeof buf), 0);  // EOF
  proc_.close(cli);
  proc_.close(lfd);
  proc_.close(m.fd);
  EXPECT_EQ(net_.live_sockets(), 0u);
  EXPECT_EQ(rdev_.live_rings(), 0u);
}

/// A descriptor in `to` for the object behind `from`'s `fd`, as fork(2)
/// or SCM_RIGHTS would hand it over: a slot of its own, one more count.
int inherit_fd(uk::Process& from, int fd, uk::Process& to) {
  const fs::OpenFile f = *from.fds.get(fd);
  Result<int> nfd = to.fds.install(f);
  if (!nfd) return -1;
  f.fsp->dup_file(f.ino);
  return nfd.value();
}

/// The value of counter `name` in a /proc/ring/stats rendering (any line
/// but the first, which is rings_live).
std::uint64_t stat_of(const std::string& text, std::string_view name) {
  std::string key = "\n";
  key += name;
  key += ' ';
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size()));
}

// Threads in their own processes share one connection and one ring
// through inherited fds: each dups, uses and closes them, and sets up and
// closes rings and sockets of its own, while another thread renders
// /proc. The fd counts keep the shared objects open until the last close,
// and /proc/ring/stats, summed over live and retired rings, never counts
// a ring twice or misses one: its counters only grow, and end exact.
TEST_F(RingTest, SmpFdObjectsSurviveDupCloseAndProcReaders) {
  constexpr int kThreads = 3;
  constexpr int kRounds = 60;
  constexpr char kMsg[] = "smp-fd!";  // 8 bytes with the NUL
  fs::ProcFs& pfs = kernel_.mount_procfs();
  ASSERT_EQ(rdev_.register_proc(pfs), Errno::kOk);
  ASSERT_EQ(net_.register_proc(pfs), Errno::kOk);
  const int lfd = static_cast<int>(net_.sys_socket(p()));
  ASSERT_EQ(net_.sys_bind(p(), lfd, 7402), 0);
  ASSERT_EQ(net_.sys_listen(p(), lfd, 4), 0);
  const int cli = static_cast<int>(net_.sys_socket(p()));
  ASSERT_EQ(net_.sys_connect(p(), cli, 7402), 0);
  const int srv = static_cast<int>(net_.sys_accept(p(), lfd));
  ASSERT_GE(srv, 0);
  Mapped shared = make_ring(256, 256);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    uk::Proc rp(kernel_, "smp-proc");
    char buf[4096];
    const auto render = [&](const char* path) {
      const int fd = rp.open(path, fs::kORdOnly);
      EXPECT_GE(fd, 0) << path;
      std::string text;
      for (SysRet n; (n = rp.read(fd, buf, sizeof buf)) > 0;) {
        text.append(buf, static_cast<std::size_t>(n));
      }
      rp.close(fd);
      return text;
    };
    std::uint64_t enters = 0;
    std::uint64_t sqes = 0;
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_NE(render("/proc/net/sockets").find("connected"),
                std::string::npos);
      EXPECT_NE(render("/proc/ring/rings").find(" 256 512 256 "),
                std::string::npos);
      const std::string st = render("/proc/ring/stats");
      EXPECT_GE(stat_of(st, "enters"), enters);
      EXPECT_GE(stat_of(st, "sqes"), sqes);
      enters = stat_of(st, "enters");
      sqes = stat_of(st, "sqes");
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uk::Proc wp(kernel_, testutil::numbered("smp-fd", t));
      uk::Process& w = wp.process();
      const int sock = inherit_fd(p(), cli, w);
      const int ring = inherit_fd(p(), shared.fd, w);
      ASSERT_GE(sock, 0);
      ASSERT_GE(ring, 0);
      for (int i = 0; i < kRounds; ++i) {
        const int ds = wp.dup(sock);
        ASSERT_EQ(net_.sys_send(w, ds, kMsg, sizeof kMsg),
                  static_cast<SysRet>(sizeof kMsg));
        ASSERT_EQ(wp.close(ds), 0);

        const int dr = wp.dup(ring);
        while (!shared.rg->user_prepare(Sqe{})) std::this_thread::yield();
        ASSERT_GE(rdev_.sys_ring_enter(w, dr, RingDev::kDrainAll, 0, 0), 0);
        ASSERT_EQ(wp.close(dr), 0);

        // An object of its own, registered and retired in the race.
        const int own = static_cast<int>(rdev_.sys_ring_setup(w, 8, 64));
        ASSERT_GE(own, 0);
        Result<std::shared_ptr<Ring>> rg = rdev_.user_map(w, own);
        ASSERT_TRUE(rg.ok());
        ASSERT_TRUE(rg.value()->user_prepare(Sqe{}));
        ASSERT_EQ(rdev_.sys_ring_enter(w, own, RingDev::kDrainAll, 0, 0), 1);
        ASSERT_EQ(wp.close(own), 0);
        const int s = static_cast<int>(net_.sys_socket(w));
        ASSERT_GE(s, 0);
        ASSERT_EQ(wp.close(s), 0);
      }
      wp.close(sock);
      wp.close(ring);
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Only this process's fds are left; every byte and every SQE arrived.
  EXPECT_EQ(net_.live_sockets(), 3u);
  EXPECT_EQ(rdev_.live_rings(), 1u);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), shared.fd, RingDev::kDrainAll, 0, 0),
            0);
  std::string got(kThreads * kRounds * sizeof kMsg, '\0');
  std::size_t n = 0;
  while (n < got.size()) {
    const SysRet r = net_.sys_recv(p(), srv, got.data() + n, got.size() - n);
    ASSERT_GT(r, 0);
    n += static_cast<std::size_t>(r);
  }
  proc_.close(shared.fd);
  proc_.close(srv);
  proc_.close(cli);
  proc_.close(lfd);
  EXPECT_EQ(net_.live_sockets(), 0u);
  EXPECT_EQ(rdev_.live_rings(), 0u);
  const RingStats total = rdev_.total_stats();
  EXPECT_EQ(total.enters, 2u * kThreads * kRounds + 1);
  EXPECT_EQ(total.sqes, 2u * kThreads * kRounds);
  EXPECT_EQ(total.cqes_posted, 2u * kThreads * kRounds);
}

// --- linked chains -----------------------------------------------------------

TEST_F(RingTest, LinkedChainCancelsAfterError) {
  Mapped m = make_ring(8, 512);
  put_path(*m.rg, 0, "/does-not-exist");
  // open(ENOENT) -> read -> close: the failure's errno lands on op 0,
  // everything linked behind it is -ECANCELED.
  Sqe o{};
  o.user_data = 1;
  o.nr = uk::Sys::kOpen;
  o.flags = kSqeLink;
  o.args = {0, fs::kORdOnly, 0644};
  ASSERT_TRUE(m.rg->user_prepare(o));
  Sqe r{};
  r.user_data = 2;
  r.nr = uk::Sys::kRead;
  r.flags = kSqeLink;
  r.args = {kFdChain, 256, 64};
  ASSERT_TRUE(m.rg->user_prepare(r));
  Sqe c{};
  c.user_data = 3;
  c.nr = uk::Sys::kClose;
  c.args = {kFdChain};
  ASSERT_TRUE(m.rg->user_prepare(c));

  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  EXPECT_EQ(res_of(cqes, 1), sysret_err(Errno::kENOENT));
  EXPECT_EQ(res_of(cqes, 2), sysret_err(Errno::kECANCELED));
  EXPECT_EQ(res_of(cqes, 3), sysret_err(Errno::kECANCELED));
  EXPECT_EQ(m.rg->stats().chains_failed, 1u);
  proc_.close(m.fd);
}

TEST_F(RingTest, FailedChainRollsBackOpenedFds) {
  Mapped m = make_ring(8, 512);
  int f = proc_.open("/roll", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(f, 0);
  proc_.close(f);
  put_path(*m.rg, 0, "/roll");
  const std::size_t fds0 = p().fds.open_count();

  // open(ok) -> read -> write(bad fd, EBADF): cancel-on-error fires
  // AFTER the open handed out a descriptor, so the engine closes it and
  // rewrites the open's CQE to -ECANCELED -- no fd leaks from a failed
  // chain, and the user never sees a number they must not use.
  Sqe o{};
  o.user_data = 1;
  o.nr = uk::Sys::kOpen;
  o.flags = kSqeLink;
  o.args = {0, fs::kORdOnly, 0644};
  ASSERT_TRUE(m.rg->user_prepare(o));
  Sqe r{};
  r.user_data = 2;
  r.nr = uk::Sys::kRead;
  r.flags = kSqeLink;
  r.args = {kFdChain, 256, 64};
  ASSERT_TRUE(m.rg->user_prepare(r));
  Sqe w{};
  w.user_data = 3;
  w.nr = uk::Sys::kWrite;
  w.args = {uk::Kernel::iarg(912), 256, 64};
  ASSERT_TRUE(m.rg->user_prepare(w));

  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  EXPECT_EQ(res_of(cqes, 1), sysret_err(Errno::kECANCELED));  // rewritten
  EXPECT_EQ(res_of(cqes, 2), 0);  // the empty read itself succeeded
  EXPECT_EQ(res_of(cqes, 3), sysret_err(Errno::kEBADF));
  EXPECT_EQ(p().fds.open_count(), fds0);  // rolled back
  EXPECT_EQ(m.rg->stats().fds_rolled_back, 1u);
  proc_.close(m.fd);
}

TEST_F(RingTest, DanglingLinkIsMalformed) {
  Mapped m = make_ring(8, 256);
  Sqe s{};
  s.user_data = 7;
  s.flags = kSqeLink;  // links into... nothing
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 1);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].res, sysret_err(Errno::kEINVAL));
  EXPECT_EQ(m.rg->stats().chains_malformed, 1u);
  proc_.close(m.fd);
}

// A path register must name a string that ends inside the arena: one
// that runs off its end, or starts past it, fails EFAULT like a wild
// classic pointer -- for every path register of every call.
TEST_F(RingTest, PathMustEndInsideTheArena) {
  Mapped m = make_ring(8, 256);
  put_path(*m.rg, 0, "/p");
  std::memset(m.rg->user_data(200, 56), 'x', 56);  // no NUL up to the end
  const std::uint64_t kStat = 64;  // StatBuf window
  const Sqe cases[] = {
      {.user_data = 1, .nr = uk::Sys::kOpen, .args = {200, fs::kORdOnly}},
      {.user_data = 2, .nr = uk::Sys::kStat, .args = {256, kStat}},
      {.user_data = 3, .nr = uk::Sys::kMkdir, .args = {1 << 20, 0755}},
      {.user_data = 4, .nr = uk::Sys::kRename, .args = {0, 200}},
  };
  for (const Sqe& s : cases) ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 4);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  ASSERT_EQ(cqes.size(), 4u);
  for (const Cqe& c : cqes) {
    EXPECT_EQ(c.res, sysret_err(Errno::kEFAULT)) << "ud=" << c.user_data;
  }
  // The same calls with terminated paths reach the filesystem.
  const Sqe ok[] = {
      {.user_data = 5, .nr = uk::Sys::kMkdir, .args = {0, 0755}},
      {.user_data = 6, .nr = uk::Sys::kStat, .args = {0, kStat}},
  };
  for (const Sqe& s : ok) ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 2);
  for (const Cqe& c : reap_all(*m.rg)) EXPECT_EQ(c.res, 0);
  proc_.close(m.fd);
}

// kFdChain resolves in any descriptor register, not only the first:
// socket -> bind -> listen on the chain's socket, then register it with
// an epoll instance as epoll_ctl's third argument.
TEST_F(RingTest, FdChainResolvesInAnyDescriptorRegister) {
  Mapped m = make_ring(8, 256);
  const int ep = static_cast<int>(net_.sys_epoll_create(p()));
  ASSERT_GE(ep, 0);
  const Sqe chain[] = {
      {.user_data = 1, .nr = uk::Sys::kSocket, .flags = kSqeLink,
       .args = {net::kSockNonblock}},
      {.user_data = 2, .nr = uk::Sys::kBind, .flags = kSqeLink,
       .args = {kFdChain, 7210}},
      {.user_data = 3, .nr = uk::Sys::kListen, .flags = kSqeLink,
       .args = {kFdChain, 4}},
      {.user_data = 4, .nr = uk::Sys::kEpollCtl,
       .args = {uk::Kernel::iarg(ep), net::kEpollCtlAdd, kFdChain,
                net::kEpollIn}},
  };
  for (const Sqe& s : chain) ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 4);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  const SysRet lfd = res_of(cqes, 1);
  ASSERT_GE(lfd, 0);
  for (std::uint64_t ud = 2; ud <= 4; ++ud) EXPECT_EQ(res_of(cqes, ud), 0);
  // The listener is live and watched: a connect makes it readable.
  const int cli = static_cast<int>(net_.sys_socket(p(), net::kSockNonblock));
  ASSERT_EQ(net_.sys_connect(p(), cli, 7210), 0);
  net::EpollEvent ev[2];
  EXPECT_EQ(net_.sys_epoll_wait(p(), ep, ev, 2, 0), 1);
  EXPECT_EQ(ev[0].fd, lfd);
  proc_.close(cli);
  proc_.close(static_cast<int>(lfd));
  proc_.close(ep);
  proc_.close(m.fd);
}

TEST_F(RingTest, AcceptRecvChainOverLoopback) {
  Mapped m = make_ring(8, 512);
  int lfd = static_cast<int>(net_.sys_socket(p()));
  ASSERT_GE(lfd, 0);
  ASSERT_EQ(net_.sys_bind(p(), lfd, 7200), 0);
  ASSERT_EQ(net_.sys_listen(p(), lfd, 4), 0);
  int cli = static_cast<int>(net_.sys_socket(p()));
  ASSERT_EQ(net_.sys_connect(p(), cli, 7200), 0);
  const char hello[] = "hello-ring";
  ASSERT_EQ(net_.sys_send(p(), cli, hello, sizeof hello),
            static_cast<SysRet>(sizeof hello));

  // accept -> recv(kFdChain): the chain subsumes accept_recv.
  Sqe a{};
  a.user_data = 1;
  a.nr = uk::Sys::kAccept;
  a.flags = kSqeLink;
  a.args = {uk::Kernel::iarg(lfd)};
  ASSERT_TRUE(m.rg->user_prepare(a));
  Sqe r{};
  r.user_data = 2;
  r.nr = uk::Sys::kRecv;
  r.args = {kFdChain, 0, 64};
  ASSERT_TRUE(m.rg->user_prepare(r));

  const std::uint64_t sys0 = proc_.task().syscalls;
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 2);
  EXPECT_EQ(proc_.task().syscalls - sys0, 1u);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  SysRet srv = res_of(cqes, 1);
  ASSERT_GE(srv, 0);
  EXPECT_EQ(res_of(cqes, 2), static_cast<SysRet>(sizeof hello));
  EXPECT_STREQ(reinterpret_cast<const char*>(m.rg->user_data(0, 64)), hello);
  proc_.close(static_cast<int>(srv));
  proc_.close(cli);
  proc_.close(lfd);
  proc_.close(m.fd);
}

// accept_recv's connection comes back through its out slot, yet it is
// the chain's fd: kFdChain names it, and a failed chain closes it.
TEST_F(RingTest, AcceptRecvConnectionIsTheChainFd) {
  Mapped m = make_ring(8, 512);
  const int lfd = static_cast<int>(net_.sys_socket(p(), net::kSockNonblock));
  ASSERT_EQ(net_.sys_bind(p(), lfd, 7201), 0);
  ASSERT_EQ(net_.sys_listen(p(), lfd, 4), 0);
  int clis[2];
  for (int& cli : clis) {
    cli = static_cast<int>(net_.sys_socket(p(), net::kSockNonblock));
    ASSERT_EQ(net_.sys_connect(p(), cli, 7201), 0);
    ASSERT_EQ(net_.sys_send(p(), cli, "ping", 4), 4);
  }
  const std::size_t fds0 = p().fds.open_count();
  auto accept_recv = [&](std::uint64_t ud) {
    Sqe a{};
    a.user_data = ud;
    a.nr = uk::Sys::kAcceptRecv;
    a.flags = kSqeLink;
    a.args = {uk::Kernel::iarg(lfd), 0, 64, 128};
    ASSERT_TRUE(m.rg->user_prepare(a));
  };

  // accept_recv -> send(kFdChain): the reply reaches the first client.
  accept_recv(1);
  std::memcpy(m.rg->user_data(256, 4), "pong", 4);
  Sqe s{};
  s.user_data = 2;
  s.nr = uk::Sys::kSend;
  s.args = {kFdChain, 256, 4};
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 2);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  EXPECT_EQ(res_of(cqes, 1), 4);
  EXPECT_EQ(res_of(cqes, 2), 4);
  int connfd = -1;
  std::memcpy(&connfd, m.rg->user_data(128, sizeof connfd), sizeof connfd);
  ASSERT_GE(connfd, 0);
  char buf[8] = {};
  EXPECT_EQ(net_.sys_recv(p(), clis[0], buf, sizeof buf), 4);
  EXPECT_EQ(std::memcmp(buf, "pong", 4), 0);
  proc_.close(connfd);

  // accept_recv -> read(bad fd): the chain fails and its connection is
  // closed again, its CQE rewritten to -ECANCELED.
  accept_recv(3);
  Sqe bad{};
  bad.user_data = 4;
  bad.nr = uk::Sys::kRead;
  bad.args = {999, 256, 4};
  ASSERT_TRUE(m.rg->user_prepare(bad));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 2);
  cqes = reap_all(*m.rg);
  EXPECT_EQ(res_of(cqes, 3), sysret_err(Errno::kECANCELED));
  EXPECT_EQ(res_of(cqes, 4), sysret_err(Errno::kEBADF));
  EXPECT_EQ(m.rg->stats().fds_rolled_back, 1u);
  EXPECT_EQ(p().fds.open_count(), fds0);
  EXPECT_EQ(net_.sys_recv(p(), clis[1], buf, sizeof buf), 0);
  for (int cli : clis) proc_.close(cli);
  proc_.close(lfd);
  proc_.close(m.fd);
}

// --- fault injection ---------------------------------------------------------

TEST_F(RingTest, SqeCorruptHardFailsTheChain) {
  kernel_.kfail().set_seed(42);
  fault::SiteConfig cfg;
  cfg.nth = 1;  // exactly the first SQE checked
  kernel_.kfail().arm(fault::Site::kRingSqeCorrupt, cfg);
  Mapped m = make_ring(8, 256);
  Sqe s{};
  s.user_data = 1;
  s.flags = kSqeLink;
  ASSERT_TRUE(m.rg->user_prepare(s));
  s.user_data = 2;
  s.flags = 0;
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 2);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  EXPECT_EQ(res_of(cqes, 1), sysret_err(Errno::kEFAULT));
  EXPECT_EQ(res_of(cqes, 2), sysret_err(Errno::kECANCELED));
  EXPECT_EQ(m.rg->stats().sqe_corrupt_hard, 1u);
  kernel_.kfail().disarm(fault::Site::kRingSqeCorrupt);
  proc_.close(m.fd);
}

TEST_F(RingTest, SqeCorruptTransientRecovers) {
  kernel_.kfail().set_seed(42);
  fault::SiteConfig cfg;
  cfg.p = 1.0;
  cfg.transient = true;
  kernel_.kfail().arm(fault::Site::kRingSqeCorrupt, cfg);
  Mapped m = make_ring(8, 256);
  for (std::uint64_t i = 0; i < 4; ++i) {
    Sqe s{};
    s.user_data = i;
    ASSERT_TRUE(m.rg->user_prepare(s));
  }
  const std::uint64_t k0 = proc_.task().times().kernel;
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 4);
  for (const Cqe& c : reap_all(*m.rg)) EXPECT_EQ(c.res, 0);  // all recovered
  EXPECT_EQ(m.rg->stats().sqe_corrupt_transient, 4u);
  EXPECT_GT(proc_.task().times().kernel, k0);  // revalidation was charged
  kernel_.kfail().disarm(fault::Site::kRingSqeCorrupt);
  proc_.close(m.fd);
}

TEST_F(RingTest, CqeDropHardLosesExactlyOneCompletion) {
  kernel_.kfail().set_seed(7);
  fault::SiteConfig cfg;
  cfg.nth = 1;
  kernel_.kfail().arm(fault::Site::kRingCqeDrop, cfg);
  Mapped m = make_ring(8, 256);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Sqe s{};
    s.user_data = i;
    ASSERT_TRUE(m.rg->user_prepare(s));
  }
  // Three ops ran; the first completion vanished before posting.
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 2);
  EXPECT_EQ(reap_all(*m.rg).size(), 2u);
  EXPECT_EQ(m.rg->stats().cqe_drop_hard, 1u);
  kernel_.kfail().disarm(fault::Site::kRingCqeDrop);
  proc_.close(m.fd);
}

TEST_F(RingTest, CqeDropTransientRepostsEverything) {
  kernel_.kfail().set_seed(7);
  fault::SiteConfig cfg;
  cfg.p = 1.0;
  cfg.transient = true;
  kernel_.kfail().arm(fault::Site::kRingCqeDrop, cfg);
  Mapped m = make_ring(8, 256);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Sqe s{};
    s.user_data = i;
    ASSERT_TRUE(m.rg->user_prepare(s));
  }
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  EXPECT_EQ(reap_all(*m.rg).size(), 3u);
  EXPECT_EQ(m.rg->stats().cqe_drop_transient, 3u);
  kernel_.kfail().disarm(fault::Site::kRingCqeDrop);
  proc_.close(m.fd);
}

// --- supervision -------------------------------------------------------------

TEST_F(RingTest, QuarantineDegradesToClassicDecomposition) {
  sup::Supervisor s(kernel_);
  sup::BreakerPolicy pol;
  pol.violation_threshold = 1;
  pol.window_invocations = 8;
  pol.backoff_initial = 64;  // stay quarantined for the whole test
  s.set_policy(pol);
  sup::ExtId id = s.register_extension("ringtest.ext", sup::Vehicle::kRing);

  Mapped m = make_ring(16, 1024);
  ASSERT_TRUE(rdev_.supervise(p(), m.fd, s, id).ok());
  int f = proc_.open("/q", fs::kOWrOnly | fs::kOCreat);
  proc_.write(f, "xxxxxxxx", 8);
  proc_.close(f);
  put_path(*m.rg, 512, "/q");

  auto submit_read_chain = [&](std::uint64_t base) {
    Sqe o{};
    o.user_data = base;
    o.nr = uk::Sys::kOpen;
    o.flags = kSqeLink;
    o.args = {512, fs::kORdOnly, 0644};
    ASSERT_TRUE(m.rg->user_prepare(o));
    Sqe r{};
    r.user_data = base + 1;
    r.nr = uk::Sys::kRead;
    r.flags = kSqeLink;
    r.args = {kFdChain, 0, 8};
    ASSERT_TRUE(m.rg->user_prepare(r));
    Sqe c{};
    c.user_data = base + 2;
    c.nr = uk::Sys::kClose;
    c.args = {kFdChain};
    ASSERT_TRUE(m.rg->user_prepare(c));
  };

  // Healthy: the kernel path, one crossing for the whole chain.
  submit_read_chain(0);
  std::uint64_t sys0 = proc_.task().syscalls;
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  EXPECT_EQ(proc_.task().syscalls - sys0, 1u);
  EXPECT_EQ(s.health(id), sup::Health::kHealthy);
  reap_all(*m.rg);

  // A corrupt SQE is a violation. The breaker demotes one step per
  // violation: healthy -> probation on the first, probation -> quarantine
  // on the second (threshold 1 means one window violation suffices once
  // probation is reached).
  kernel_.kfail().set_seed(3);
  fault::SiteConfig fc;
  fc.nth = 1;
  kernel_.kfail().arm(fault::Site::kRingSqeCorrupt, fc);
  submit_read_chain(10);
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  EXPECT_EQ(s.health(id), sup::Health::kProbation);
  reap_all(*m.rg);
  kernel_.kfail().arm(fault::Site::kRingSqeCorrupt, fc);  // re-arm: nth resets
  submit_read_chain(30);
  SysRet second = rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0);
  EXPECT_GE(second, 0);
  kernel_.kfail().disarm(fault::Site::kRingSqeCorrupt);
  EXPECT_EQ(s.health(id), sup::Health::kQuarantined);
  reap_all(*m.rg);

  // Quarantined: the same chain decomposes into classic one-crossing-
  // per-op syscalls -- crossings jump from 1 to 3, results identical.
  submit_read_chain(20);
  sys0 = proc_.task().syscalls;
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  EXPECT_EQ(proc_.task().syscalls - sys0, 3u);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  EXPECT_GE(res_of(cqes, 20), 0);
  EXPECT_EQ(res_of(cqes, 21), 8);
  EXPECT_EQ(res_of(cqes, 22), 0);
  EXPECT_GE(m.rg->stats().enters_fallback, 1u);
  EXPECT_GE(s.stats(id).fallback_runs, 1u);
  proc_.close(m.fd);
}

TEST_F(RingTest, FuelQuotaTripsEdquot) {
  sup::Supervisor s(kernel_);
  sup::Quota q;
  q.invocation_fuel = 2;  // two SQEs per enter
  sup::ExtId id = s.register_extension("ringtest.fuel", sup::Vehicle::kRing, q);
  Mapped m = make_ring(8, 256);
  ASSERT_TRUE(rdev_.supervise(p(), m.fd, s, id).ok());
  for (std::uint64_t i = 0; i < 4; ++i) {
    Sqe sq{};
    sq.user_data = i;
    ASSERT_TRUE(m.rg->user_prepare(sq));
  }
  // Chains 1+2 fit the fuel; chain 3 trips the cap and completes with
  // EDQUOT; chain 4 stays queued (the drain stops at the trip).
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 3);
  std::vector<Cqe> cqes = reap_all(*m.rg);
  EXPECT_EQ(res_of(cqes, 0), 0);
  EXPECT_EQ(res_of(cqes, 1), 0);
  EXPECT_EQ(res_of(cqes, 2), sysret_err(Errno::kEDQUOT));
  EXPECT_GE(s.stats(id).quota_overruns, 1u);
  proc_.close(m.fd);
}

// --- parked wait -------------------------------------------------------------

TEST_F(RingTest, MinCompleteParksUntilProducerSubmits) {
  Mapped m = make_ring(8, 256);
  std::atomic<bool> submitted{false};
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Sqe s{};
    s.user_data = 1;
    // Flag BEFORE the prepare: the doorbell in user_prepare wakes the
    // parked enter instantly, so a store after it races the drain.
    submitted.store(true, std::memory_order_release);
    ASSERT_TRUE(m.rg->user_prepare(s));
  });
  // Nothing queued yet: the enter parks (no polling -- the doorbell in
  // user_prepare wakes it) until the producer's SQE drains.
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 1, -1), 1);
  EXPECT_TRUE(submitted.load(std::memory_order_acquire));
  producer.join();
  EXPECT_EQ(reap_all(*m.rg).size(), 1u);
  proc_.close(m.fd);
}

TEST_F(RingTest, EmptyEnterWaitsOutItsTimeoutThroughSpuriousWakes) {
  // Enough parks on one Kernel for the `dl` label's dl.spurious_wake spec
  // to fire on this Kernel's injector: a woken enter re-checks its CQ and
  // parks again, so each one still waits out its timeout with nothing
  // posted.
  Mapped m = make_ring(8, 256);
  for (int i = 0; i < 64; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 1, 1), 0)
        << "enter " << i;
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(1))
        << "enter " << i;
  }
  proc_.close(m.fd);
}

TEST_F(RingTest, ZeroTimeoutNeverWaits) {
  Mapped m = make_ring(8, 256);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 1, 0), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  proc_.close(m.fd);
}

// --- /proc/ring --------------------------------------------------------------

TEST_F(RingTest, ProcRingSurface) {
  fs::ProcFs& pfs = kernel_.mount_procfs();
  rdev_.register_proc(pfs);
  Mapped m = make_ring(8, 256);
  Sqe s{};
  ASSERT_TRUE(m.rg->user_prepare(s));
  EXPECT_EQ(rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 0, 0), 1);

  int fd = proc_.open("/proc/ring/stats", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  char buf[1024] = {};
  ASSERT_GT(proc_.read(fd, buf, sizeof buf - 1), 0);
  proc_.close(fd);
  EXPECT_NE(std::strstr(buf, "rings_live 1"), nullptr);
  EXPECT_NE(std::strstr(buf, "enters 1"), nullptr);
  EXPECT_NE(std::strstr(buf, "sqes 1"), nullptr);

  std::string rings = rdev_.format_rings();
  EXPECT_NE(rings.find("sq_cap"), std::string::npos);
  EXPECT_NE(rings.find(" 8 16 256 "), std::string::npos);  // geometry row
  proc_.close(m.fd);
}

// --- MT stress (TSan target: name must match the Smp filter) -----------------

TEST_F(RingTest, SmpProducersAndDrainerStress) {
  Mapped m = make_ring(64, 4096);
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 200;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  std::atomic<std::size_t> reaped{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        Sqe s{};
        s.user_data = t * 1000 + i;
        while (!m.rg->user_prepare(s)) std::this_thread::yield();
      }
    });
  }
  // Reaper: drains the CQ concurrently with the kernel posting to it.
  std::thread reaper([&] {
    Cqe buf[32];
    while (reaped.load(std::memory_order_relaxed) < kTotal) {
      std::size_t n = m.rg->user_reap(buf, 32);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      reaped.fetch_add(n, std::memory_order_relaxed);
    }
  });
  // Drainer (this thread): parked enters until every SQE completed.
  std::size_t posted = 0;
  while (posted < kTotal) {
    SysRet r = rdev_.sys_ring_enter(p(), m.fd, RingDev::kDrainAll, 1, 50);
    ASSERT_GE(r, 0);
    posted += static_cast<std::size_t>(r);
  }
  for (std::thread& t : producers) t.join();
  reaper.join();
  EXPECT_EQ(posted, kTotal);
  EXPECT_EQ(reaped.load(), kTotal);
  EXPECT_EQ(m.rg->stats().cqes_posted, kTotal);
  proc_.close(m.fd);
}

}  // namespace
}  // namespace usk::ring
