// Tests for the loopback network stack: the ByteQueue ring against a
// reference model, socket lifecycle and errno paths, fd-table interop
// (dup, read/write parity), the epoll multiplexer, the consolidated
// server calls, /proc/net, and multi-threaded client/server runs (TSan
// targets).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "consolidation/newcalls.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "uk/userlib.hpp"

namespace usk::net {
namespace {

/// `n` bytes of a seeded stream, as a queue's producer would push them.
std::vector<std::byte> seeded_bytes(std::uint64_t seed, std::size_t n) {
  base::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (std::byte& b : v) b = static_cast<std::byte>(rng.next() >> 56);
  return v;
}

/// Random push and pop sizes against a std::deque model: every call's
/// count, every delivered byte, and size()/free_space() after each step.
TEST(ByteQueueTest, MatchesADequeModel) {
  for (std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                          std::size_t{65536}}) {
    SCOPED_TRACE(cap);
    ByteQueue q(cap);
    std::deque<std::byte> model;
    base::Rng rng(cap * 31 + 7);
    const std::vector<std::byte> src = seeded_bytes(cap, 2 * cap + 1);
    std::vector<std::byte> dst(2 * cap + 1);
    for (int step = 0; step < 2000; ++step) {
      const std::size_t len = rng.below(2 * cap + 2);  // 0 .. 2*cap+1
      if (rng.chance(1, 2)) {
        const std::size_t off = rng.below(src.size() - len + 1);
        const std::size_t want = std::min(len, cap - model.size());
        ASSERT_EQ(q.push(std::span(src).subspan(off, len)), want);
        model.insert(model.end(), src.begin() + off, src.begin() + off + want);
      } else {
        const std::size_t want = std::min(len, model.size());
        ASSERT_EQ(q.pop(std::span(dst).first(len)), want);
        for (std::size_t i = 0; i < want; ++i) {
          ASSERT_EQ(dst[i], model.front()) << "step " << step << " byte " << i;
          model.pop_front();
        }
      }
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.free_space(), cap - model.size());
      ASSERT_EQ(q.capacity(), cap);
    }
  }
}

/// For the small capacities, every run length pushed and popped from
/// every head offset: each wrap point is crossed by push and by pop.
TEST(ByteQueueTest, WrapsAtEveryOffset) {
  for (std::size_t cap : {std::size_t{1}, std::size_t{7}}) {
    const std::vector<std::byte> src = seeded_bytes(cap + 100, cap);
    for (std::size_t head = 0; head < cap; ++head) {
      for (std::size_t len = 1; len <= cap; ++len) {
        SCOPED_TRACE(testing::Message() << "cap " << cap << " head " << head
                                        << " len " << len);
        ByteQueue q(cap);
        std::vector<std::byte> dst(cap);
        ASSERT_EQ(q.push(std::span(src).first(head)), head);
        ASSERT_EQ(q.pop(std::span(dst).first(head)), head);
        ASSERT_EQ(q.push(std::span(src).first(len)), len);
        ASSERT_EQ(q.free_space(), cap - len);
        std::fill(dst.begin(), dst.end(), std::byte{0});
        ASSERT_EQ(q.pop(dst), len);
        ASSERT_TRUE(std::equal(dst.begin(), dst.begin() + len, src.begin()));
        ASSERT_EQ(q.size(), 0u);
      }
    }
  }
}

/// A push into a nearly full queue takes what fits; a short pop leaves the
/// rest queued in order; empty spans (null data) move nothing.
TEST(ByteQueueTest, PartialPushShortPopAndEmptySpans) {
  ByteQueue q(16);
  const std::vector<std::byte> src = seeded_bytes(3, 32);
  std::vector<std::byte> dst(32);
  EXPECT_EQ(q.push({}), 0u);
  EXPECT_EQ(q.pop({}), 0u);
  EXPECT_EQ(q.pop(dst), 0u);
  EXPECT_EQ(q.push(std::span(src).first(10)), 10u);
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.free_space(), 6u);
  EXPECT_EQ(q.push(std::span(src).subspan(10, 10)), 6u);  // partial: full
  EXPECT_EQ(q.size(), 16u);
  EXPECT_EQ(q.free_space(), 0u);
  EXPECT_EQ(q.push(std::span(src).subspan(16, 1)), 0u);
  EXPECT_EQ(q.push({}), 0u);
  EXPECT_EQ(q.pop(std::span(dst).first(4)), 4u);  // shorter than queued
  EXPECT_TRUE(std::equal(dst.begin(), dst.begin() + 4, src.begin()));
  EXPECT_EQ(q.size(), 12u);
  EXPECT_EQ(q.free_space(), 4u);
  EXPECT_EQ(q.push(std::span(src).subspan(16, 8)), 4u);  // wraps the tail
  EXPECT_EQ(q.size(), 16u);
  EXPECT_EQ(q.pop({}), 0u);
  EXPECT_EQ(q.pop(dst), 16u);  // wraps the head
  EXPECT_TRUE(std::equal(dst.begin(), dst.begin() + 16, src.begin() + 4));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.free_space(), 16u);
}

class NetTest : public ::testing::Test {
 protected:
  NetTest() : kernel_(fs_), net_(kernel_), proc_(kernel_, "net-test") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  /// Listener + connected client/server pair on `port`. connect() queues
  /// the connection before accept() runs, so nothing blocks.
  struct Trio {
    int lfd = -1, cli = -1, srv = -1;
  };
  Trio make_pair_on(std::uint16_t port, int sock_flags = 0) {
    uk::Process& p = proc_.process();
    Trio t;
    t.lfd = static_cast<int>(net_.sys_socket(p, sock_flags));
    EXPECT_GE(t.lfd, 0);
    EXPECT_EQ(net_.sys_bind(p, t.lfd, port), 0);
    EXPECT_EQ(net_.sys_listen(p, t.lfd, 8), 0);
    t.cli = static_cast<int>(net_.sys_socket(p, sock_flags));
    EXPECT_GE(t.cli, 0);
    EXPECT_EQ(net_.sys_connect(p, t.cli, port), 0);
    t.srv = static_cast<int>(net_.sys_accept(p, t.lfd));
    EXPECT_GE(t.srv, 0);
    return t;
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  Net net_;
  uk::Proc proc_;
};

TEST_F(NetTest, LifecycleEchoAndShutdownEof) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7000);

  const char ping[] = "ping!";
  EXPECT_EQ(net_.sys_send(p, t.cli, ping, sizeof(ping)),
            static_cast<SysRet>(sizeof(ping)));
  char buf[16] = {};
  EXPECT_EQ(net_.sys_recv(p, t.srv, buf, sizeof(buf)),
            static_cast<SysRet>(sizeof(ping)));
  EXPECT_STREQ(buf, ping);

  const char pong[] = "pong";
  EXPECT_EQ(net_.sys_send(p, t.srv, pong, sizeof(pong)),
            static_cast<SysRet>(sizeof(pong)));
  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(net_.sys_recv(p, t.cli, buf, sizeof(buf)),
            static_cast<SysRet>(sizeof(pong)));
  EXPECT_STREQ(buf, pong);

  // shutdown(WR) on the client delivers EOF to the server once drained.
  EXPECT_EQ(net_.sys_shutdown(p, t.cli, kShutWr), 0);
  EXPECT_EQ(net_.sys_recv(p, t.srv, buf, sizeof(buf)), 0);

  EXPECT_EQ(proc_.close(t.cli), 0);
  EXPECT_EQ(proc_.close(t.srv), 0);
  EXPECT_EQ(proc_.close(t.lfd), 0);
  EXPECT_EQ(net_.stats().conns_accepted, 1u);
}

TEST_F(NetTest, BindErrnoPaths) {
  uk::Process& p = proc_.process();
  int a = static_cast<int>(net_.sys_socket(p));
  int b = static_cast<int>(net_.sys_socket(p));
  EXPECT_EQ(net_.sys_bind(p, a, 0), sysret_err(Errno::kEINVAL));
  EXPECT_EQ(net_.sys_bind(p, a, 7001), 0);
  EXPECT_EQ(net_.sys_bind(p, b, 7001), sysret_err(Errno::kEADDRINUSE));
  // Rebinding an already-bound socket is invalid.
  EXPECT_EQ(net_.sys_bind(p, a, 7002), sysret_err(Errno::kEINVAL));
  // listen() before bind() is invalid.
  EXPECT_EQ(net_.sys_listen(p, b, 4), sysret_err(Errno::kEINVAL));
  // Closing the holder frees the port for the next bind.
  EXPECT_EQ(proc_.close(a), 0);
  EXPECT_EQ(net_.sys_bind(p, b, 7001), 0);
  proc_.close(b);
}

TEST_F(NetTest, ConnectRefusedWithoutListener) {
  uk::Process& p = proc_.process();
  int c = static_cast<int>(net_.sys_socket(p));
  EXPECT_EQ(net_.sys_connect(p, c, 7010), sysret_err(Errno::kECONNREFUSED));
  // Bound but not listening also refuses.
  int s = static_cast<int>(net_.sys_socket(p));
  EXPECT_EQ(net_.sys_bind(p, s, 7011), 0);
  EXPECT_EQ(net_.sys_connect(p, c, 7011), sysret_err(Errno::kECONNREFUSED));
  EXPECT_EQ(net_.stats().conns_refused, 2u);
  proc_.close(c);
  proc_.close(s);
}

TEST_F(NetTest, NonblockingEagain) {
  uk::Process& p = proc_.process();
  int lfd = static_cast<int>(net_.sys_socket(p, kSockNonblock));
  EXPECT_EQ(net_.sys_bind(p, lfd, 7020), 0);
  EXPECT_EQ(net_.sys_listen(p, lfd, 4), 0);
  // Empty accept queue: EAGAIN instead of blocking.
  EXPECT_EQ(net_.sys_accept(p, lfd), sysret_err(Errno::kEAGAIN));

  int cli = static_cast<int>(net_.sys_socket(p, kSockNonblock));
  EXPECT_EQ(net_.sys_connect(p, cli, 7020), 0);
  int srv = static_cast<int>(net_.sys_accept(p, lfd));
  ASSERT_GE(srv, 0);
  // Accepted connections inherit the listener's nonblocking mode.
  char b;
  EXPECT_EQ(net_.sys_recv(p, srv, &b, 1), sysret_err(Errno::kEAGAIN));
  EXPECT_EQ(net_.sys_recv(p, cli, &b, 1), sysret_err(Errno::kEAGAIN));
  proc_.close(cli);
  proc_.close(srv);
  proc_.close(lfd);
}

TEST_F(NetTest, ShutdownAndResetErrnoPaths) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7030);

  EXPECT_EQ(net_.sys_shutdown(p, t.cli, 99), sysret_err(Errno::kEINVAL));
  int fresh = static_cast<int>(net_.sys_socket(p));
  EXPECT_EQ(net_.sys_shutdown(p, fresh, kShutWr),
            sysret_err(Errno::kENOTCONN));
  proc_.close(fresh);

  // EPIPE after shutting down our own write side.
  EXPECT_EQ(net_.sys_shutdown(p, t.cli, kShutWr), 0);
  char c = 'x';
  EXPECT_EQ(net_.sys_send(p, t.cli, &c, 1), sysret_err(Errno::kEPIPE));

  // ECONNRESET when the peer is gone entirely.
  EXPECT_EQ(proc_.close(t.cli), 0);
  char buf[4];
  EXPECT_EQ(net_.sys_recv(p, t.srv, buf, sizeof(buf)), 0);  // EOF first
  EXPECT_EQ(net_.sys_send(p, t.srv, &c, 1), sysret_err(Errno::kECONNRESET));
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, NotSockAndBadFdAreUniform) {
  uk::Process& p = proc_.process();
  int file = proc_.open("/plain.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(file, 0);
  char c = 'x';
  EXPECT_EQ(net_.sys_send(p, file, &c, 1), sysret_err(Errno::kENOTSOCK));
  EXPECT_EQ(net_.sys_recv(p, file, &c, 1), sysret_err(Errno::kENOTSOCK));
  EXPECT_EQ(net_.sys_bind(p, file, 7040), sysret_err(Errno::kENOTSOCK));
  EXPECT_EQ(net_.sys_send(p, 99, &c, 1), sysret_err(Errno::kEBADF));
  EXPECT_EQ(net_.sys_accept(p, 99), sysret_err(Errno::kEBADF));
  // The send copy-in must not be charged on a failed descriptor check.
  std::uint64_t from0 = proc_.task().bytes_from_user;
  char big[512];
  std::memset(big, 'y', sizeof(big));
  EXPECT_EQ(net_.sys_send(p, 99, big, sizeof(big)), sysret_err(Errno::kEBADF));
  EXPECT_EQ(proc_.task().bytes_from_user, from0);
  proc_.close(file);
}

TEST_F(NetTest, BadFdCheckedBeforeUserBuffer) {
  uk::Process& p = proc_.process();
  // Descriptor validation comes before the user pointer is even looked
  // at: send(-1, NULL, n) is EBADF, not EFAULT (regression: the null-buf
  // check used to run first and misreport the errno).
  EXPECT_EQ(net_.sys_send(p, 999, nullptr, 16), sysret_err(Errno::kEBADF));
  EXPECT_EQ(net_.sys_recv(p, 999, nullptr, 16), sysret_err(Errno::kEBADF));
  EXPECT_EQ(net_.sys_send(p, -1, nullptr, 16), sysret_err(Errno::kEBADF));
  EXPECT_EQ(net_.sys_recv(p, -1, nullptr, 16), sysret_err(Errno::kEBADF));

  // On a valid socket the null buffer is still caught, as EFAULT.
  Trio t = make_pair_on(7050);
  EXPECT_EQ(net_.sys_send(p, t.cli, nullptr, 16), sysret_err(Errno::kEFAULT));
  EXPECT_EQ(net_.sys_recv(p, t.srv, nullptr, 16), sysret_err(Errno::kEFAULT));
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, DupSharesTheConnection) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7050);

  int d = proc_.dup(t.cli);
  ASSERT_GE(d, 0);
  EXPECT_EQ(proc_.close(t.cli), 0);  // original fd gone, socket lives on

  const char msg[] = "via-dup";
  EXPECT_EQ(net_.sys_send(p, d, msg, sizeof(msg)),
            static_cast<SysRet>(sizeof(msg)));
  char buf[16] = {};
  EXPECT_EQ(net_.sys_recv(p, t.srv, buf, sizeof(buf)),
            static_cast<SysRet>(sizeof(msg)));
  EXPECT_STREQ(buf, msg);

  // Closing the last descriptor really closes: the server sees EOF.
  EXPECT_EQ(proc_.close(d), 0);
  EXPECT_EQ(net_.sys_recv(p, t.srv, buf, sizeof(buf)), 0);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, ReadWriteParityWithRecvSend) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7060);

  // write(2) on a socket fd is send; read(2) is recv.
  const char msg[] = "plain file api";
  EXPECT_EQ(proc_.write(t.cli, msg, sizeof(msg)),
            static_cast<SysRet>(sizeof(msg)));
  fs::StatBuf st{};
  EXPECT_EQ(proc_.fstat(t.srv, &st), 0);
  EXPECT_EQ(st.type, fs::FileType::kSocket);
  EXPECT_EQ(st.size, sizeof(msg));  // FIONREAD-style: queued bytes
  char buf[32] = {};
  EXPECT_EQ(proc_.read(t.srv, buf, sizeof(buf)),
            static_cast<SysRet>(sizeof(msg)));
  EXPECT_STREQ(buf, msg);

  // And the reverse direction through sys_send / read.
  EXPECT_EQ(net_.sys_send(p, t.srv, msg, 4), 4);
  EXPECT_EQ(proc_.read(t.cli, buf, sizeof(buf)), 4);
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, EpollLevelTriggeredRearm) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7070);
  int ep = static_cast<int>(net_.sys_epoll_create(p));
  ASSERT_GE(ep, 0);
  ASSERT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, t.srv, kEpollIn), 0);

  EpollEvent evs[4];
  // Nothing queued: a zero-timeout wait polls and returns 0.
  EXPECT_EQ(net_.sys_epoll_wait(p, ep, evs, 4, 0), 0);

  const char msg[] = "wake";
  EXPECT_EQ(net_.sys_send(p, t.cli, msg, sizeof(msg)),
            static_cast<SysRet>(sizeof(msg)));
  ASSERT_EQ(net_.sys_epoll_wait(p, ep, evs, 4, 1000), 1);
  EXPECT_EQ(evs[0].fd, t.srv);
  EXPECT_TRUE(evs[0].events & kEpollIn);
  // Level-triggered: not drained yet, so the fd re-arms.
  ASSERT_EQ(net_.sys_epoll_wait(p, ep, evs, 4, 0), 1);
  EXPECT_EQ(evs[0].fd, t.srv);

  char buf[16];
  EXPECT_EQ(net_.sys_recv(p, t.srv, buf, sizeof(buf)),
            static_cast<SysRet>(sizeof(msg)));
  EXPECT_EQ(net_.sys_epoll_wait(p, ep, evs, 4, 0), 0);
  proc_.close(ep);
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, BlockingEpollWaitCountsItsWaitAsKernelTime) {
  // The gateway clock spans the whole call, the park included: a 5 ms
  // epoll_wait timeout adds at least 5 ms of system time.
  uk::Process& p = proc_.process();
  int ep = static_cast<int>(net_.sys_epoll_create(p));
  ASSERT_GE(ep, 0);
  EpollEvent evs[1];
  const std::uint64_t wall0 = p.task.kernel_wall_ns;
  EXPECT_EQ(net_.sys_epoll_wait(p, ep, evs, 1, 5), 0);
  EXPECT_GE(p.task.kernel_wall_ns - wall0, 5'000'000u);
  proc_.close(ep);
}

TEST_F(NetTest, EpollCtlErrnoPaths) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7080);
  int ep = static_cast<int>(net_.sys_epoll_create(p));

  EpollEvent evs[2];
  EXPECT_EQ(net_.sys_epoll_wait(p, ep, nullptr, 4, 0),
            sysret_err(Errno::kEINVAL));
  EXPECT_EQ(net_.sys_epoll_wait(p, ep, evs, 0, 0),
            sysret_err(Errno::kEINVAL));
  // A plain socket fd is not an epoll fd, and vice versa.
  EXPECT_EQ(net_.sys_epoll_wait(p, t.srv, evs, 2, 0),
            sysret_err(Errno::kEINVAL));
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, ep, kEpollIn),
            sysret_err(Errno::kENOTSOCK));

  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, t.srv, kEpollIn), 0);
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, t.srv, kEpollIn),
            sysret_err(Errno::kEEXIST));
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlMod, t.cli, kEpollIn),
            sysret_err(Errno::kENOENT));
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlDel, t.cli, 0),
            sysret_err(Errno::kENOENT));
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlMod, t.srv, kEpollIn | 0x4),
            0);
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlDel, t.srv, 0), 0);
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, 42, t.srv, 0),
            sysret_err(Errno::kEINVAL));
  proc_.close(ep);
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, EpollCloseWhileRegistered) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7090);
  int ep = static_cast<int>(net_.sys_epoll_create(p));
  ASSERT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, t.srv, kEpollIn), 0);

  // Take the second connection's client slot BEFORE freeing t.srv so the
  // accept below lands on t.srv's old number (lowest-free-slot table).
  int cli2 = static_cast<int>(net_.sys_socket(p));
  EXPECT_EQ(net_.sys_connect(p, cli2, 7090), 0);

  // Close the watched socket without deregistering: a stale (expired)
  // watch stays in the epoll table until the next wait prunes it.
  EXPECT_EQ(proc_.close(t.srv), 0);
  int srv2 = static_cast<int>(net_.sys_accept(p, t.lfd));
  ASSERT_GE(srv2, 0);
  ASSERT_EQ(srv2, t.srv);  // fd number reused while the stale watch lives

  // ADD on the reused number takes over the stale registration instead
  // of failing EEXIST.
  EXPECT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, srv2, kEpollIn), 0);
  EpollEvent evs[4];
  const char msg[] = "hi";
  net_.sys_send(p, cli2, msg, sizeof(msg));
  ASSERT_EQ(net_.sys_epoll_wait(p, ep, evs, 4, 1000), 1);
  EXPECT_EQ(evs[0].fd, srv2);

  // Close-while-registered again, this time letting the wait prune the
  // stale watch silently instead of reporting it.
  EXPECT_EQ(proc_.close(srv2), 0);
  EXPECT_EQ(net_.sys_epoll_wait(p, ep, evs, 4, 0), 0);
  proc_.close(ep);
  proc_.close(cli2);
  proc_.close(t.cli);
  proc_.close(t.lfd);
}

// An epoll instance lives as long as any descriptor for it: after the
// original fd closes, a dup still adds, waits and reports; once the last
// fd goes, the number is EBADF.
TEST_F(NetTest, DupedEpollFdKeepsTheInstanceUntilTheLastClose) {
  uk::Process& p = proc_.process();
  Trio t = make_pair_on(7095);
  const int ep = static_cast<int>(net_.sys_epoll_create(p));
  ASSERT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, t.srv, kEpollIn), 0);
  const int d = proc_.dup(ep);
  ASSERT_GE(d, 0);
  EXPECT_EQ(proc_.close(ep), 0);

  EpollEvent evs[4];
  EXPECT_EQ(net_.sys_epoll_wait(p, d, evs, 4, 0), 0);
  const char msg[] = "dup";
  ASSERT_EQ(net_.sys_send(p, t.cli, msg, sizeof msg),
            static_cast<SysRet>(sizeof msg));
  ASSERT_EQ(net_.sys_epoll_wait(p, d, evs, 4, 1000), 1);
  EXPECT_EQ(evs[0].fd, t.srv);
  EXPECT_EQ(net_.sys_epoll_ctl(p, d, kEpollCtlAdd, t.cli, kEpollIn), 0);
  EXPECT_EQ(net_.sys_epoll_ctl(p, d, kEpollCtlDel, t.srv, 0), 0);

  EXPECT_EQ(proc_.close(d), 0);
  EXPECT_EQ(net_.sys_epoll_wait(p, d, evs, 4, 0), sysret_err(Errno::kEBADF));
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, ConsolidatedAcceptRecv) {
  uk::Process& p = proc_.process();
  int lfd = static_cast<int>(net_.sys_socket(p));
  ASSERT_EQ(net_.sys_bind(p, lfd, 7100), 0);
  ASSERT_EQ(net_.sys_listen(p, lfd, 4), 0);
  int cli = static_cast<int>(net_.sys_socket(p));
  ASSERT_EQ(net_.sys_connect(p, cli, 7100), 0);
  const char req[] = "GET /x";
  ASSERT_EQ(net_.sys_send(p, cli, req, sizeof(req)),
            static_cast<SysRet>(sizeof(req)));

  std::uint64_t crossings0 = kernel_.boundary().stats().crossings;
  char buf[32] = {};
  int connfd = -1;
  SysRet n = consolidation::sys_accept_recv(kernel_, p, lfd, buf,
                                            sizeof(buf), &connfd);
  EXPECT_EQ(n, static_cast<SysRet>(sizeof(req)));
  EXPECT_STREQ(buf, req);
  ASSERT_GE(connfd, 0);
  // accept + recv in ONE boundary crossing.
  EXPECT_EQ(kernel_.boundary().stats().crossings, crossings0 + 1);

  proc_.close(connfd);
  proc_.close(cli);
  proc_.close(lfd);
}

// A faulted fd copy-out: the caller cannot learn the connection's fd,
// so accept_recv closes it again (Linux's accept4 drops the new file the
// same way) instead of leaking it into the process.
TEST_F(NetTest, ConsolidatedAcceptRecvFdCopyFaultClosesTheConnection) {
  uk::Process& p = proc_.process();
  int lfd = static_cast<int>(net_.sys_socket(p, kSockNonblock));
  ASSERT_EQ(net_.sys_bind(p, lfd, 7105), 0);
  ASSERT_EQ(net_.sys_listen(p, lfd, 4), 0);
  int cli = static_cast<int>(net_.sys_socket(p, kSockNonblock));
  ASSERT_EQ(net_.sys_connect(p, cli, 7105), 0);
  const std::size_t fds0 = p.fds.open_count();

  // Nothing was sent, so the recv is EAGAIN and copies nothing: the first
  // copy-out is the fd slot's.
  fault::SiteConfig cfg;
  cfg.nth = 1;
  kernel_.kfail().arm(fault::Site::kCopyOut, cfg);
  char buf[32] = {};
  int connfd = -1;
  const SysRet r = consolidation::sys_accept_recv(kernel_, p, lfd, buf,
                                                  sizeof(buf), &connfd);
  kernel_.kfail().disarm_all();
  EXPECT_EQ(r, sysret_err(Errno::kEFAULT));
  EXPECT_EQ(connfd, -1);
  EXPECT_EQ(p.fds.open_count(), fds0);
  // The dropped connection reads as closed to its client.
  EXPECT_EQ(net_.sys_recv(p, cli, buf, sizeof(buf)), 0);
  proc_.close(cli);
  proc_.close(lfd);
}

TEST_F(NetTest, ConsolidatedSendfileMovesBytesKernelSide) {
  uk::Process& p = proc_.process();
  // A 10,000-byte document.
  const std::size_t kSize = 10000;
  int fd = proc_.open("/doc.bin", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  std::vector<char> payload(kSize, 'd');
  ASSERT_EQ(proc_.write(fd, payload.data(), payload.size()),
            static_cast<SysRet>(kSize));
  proc_.close(fd);

  Trio t = make_pair_on(7110);
  std::uint64_t from0 = proc_.task().bytes_from_user;
  std::uint64_t to0 = proc_.task().bytes_to_user;
  SysRet n = consolidation::sys_sendfile(kernel_, p, t.srv, "/doc.bin",
                                         0, kSize);
  EXPECT_EQ(n, static_cast<SysRet>(kSize));
  // Only the path crossed the boundary; the payload moved kernel-side.
  EXPECT_LT(proc_.task().bytes_from_user - from0, 64u);
  EXPECT_EQ(proc_.task().bytes_to_user, to0);
  EXPECT_EQ(net_.stats().sendfile_bytes, kSize);

  std::size_t got = 0;
  char buf[4096];
  while (got < kSize) {
    SysRet r = net_.sys_recv(p, t.cli, buf, sizeof(buf));
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  EXPECT_EQ(got, kSize);
  EXPECT_EQ(buf[0], 'd');

  // Errno paths stay uniform: bad socket fd first, then bad path.
  EXPECT_EQ(consolidation::sys_sendfile(kernel_, p, 99, "/doc.bin", 0,
                                        16),
            sysret_err(Errno::kEBADF));
  EXPECT_EQ(consolidation::sys_sendfile(kernel_, p, t.srv, "/missing",
                                        0, 16),
            sysret_err(Errno::kENOENT));
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

TEST_F(NetTest, ProcNetTables) {
  uk::Process& p = proc_.process();
  net_.register_proc(kernel_.mount_procfs());
  Trio t = make_pair_on(7120);
  const char msg[] = "stats";
  net_.sys_send(p, t.cli, msg, sizeof(msg));

  char buf[2048] = {};
  int fd = proc_.open("/proc/net/stats", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  ASSERT_GT(proc_.read(fd, buf, sizeof(buf) - 1), 0);
  proc_.close(fd);
  EXPECT_NE(std::strstr(buf, "sockets_created"), nullptr);
  EXPECT_NE(std::strstr(buf, "conns_accepted 1"), nullptr);

  std::memset(buf, 0, sizeof(buf));
  fd = proc_.open("/proc/net/sockets", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  ASSERT_GT(proc_.read(fd, buf, sizeof(buf) - 1), 0);
  proc_.close(fd);
  EXPECT_NE(std::strstr(buf, "connected"), nullptr);

  std::memset(buf, 0, sizeof(buf));
  fd = proc_.open("/proc/net/listeners", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  ASSERT_GT(proc_.read(fd, buf, sizeof(buf) - 1), 0);
  proc_.close(fd);
  EXPECT_NE(std::strstr(buf, "7120"), nullptr);
  proc_.close(t.cli);
  proc_.close(t.srv);
  proc_.close(t.lfd);
}

// Multi-threaded client/server stress: one epoll echo server, several
// client tasks, every byte accounted. Run under -DUSK_SANITIZE=thread to
// verify the locking discipline (socket -> epoll, never two sockets).
TEST_F(NetTest, StressEpollEchoServerMt) {
  constexpr int kClients = 4;
  constexpr int kMsgsPerClient = 64;
  constexpr std::uint16_t kPort = 7200;
  std::atomic<bool> ready{false};
  std::atomic<int> echoed{0};

  std::thread server([&] {
    uk::Proc srv(kernel_, "echo-srv");
    uk::Process& p = srv.process();
    int lfd = static_cast<int>(net_.sys_socket(p));
    ASSERT_EQ(net_.sys_bind(p, lfd, kPort), 0);
    ASSERT_EQ(net_.sys_listen(p, lfd, kClients), 0);
    int ep = static_cast<int>(net_.sys_epoll_create(p));
    ASSERT_EQ(net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, lfd, kEpollIn), 0);
    ready.store(true, std::memory_order_release);

    int closed = 0;
    EpollEvent evs[8];
    char buf[256];
    while (closed < kClients) {
      SysRet n = net_.sys_epoll_wait(p, ep, evs, 8, 100);
      ASSERT_GE(n, 0);
      for (SysRet i = 0; i < n; ++i) {
        if (evs[i].fd == lfd) {
          int conn = static_cast<int>(net_.sys_accept(p, lfd));
          if (conn >= 0) {
            net_.sys_epoll_ctl(p, ep, kEpollCtlAdd, conn, kEpollIn);
          }
        } else {
          SysRet r = net_.sys_recv(p, evs[i].fd, buf, sizeof(buf));
          if (r <= 0) {
            net_.sys_epoll_ctl(p, ep, kEpollCtlDel, evs[i].fd, 0);
            srv.close(evs[i].fd);
            ++closed;
          } else {
            net_.sys_send(p, evs[i].fd, buf, static_cast<std::size_t>(r));
            echoed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    srv.close(ep);
    srv.close(lfd);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uk::Proc cli(kernel_, "echo-cli" + std::to_string(c));
      uk::Process& p = cli.process();
      while (!ready.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      int fd = static_cast<int>(net_.sys_socket(p));
      ASSERT_EQ(net_.sys_connect(p, fd, kPort), 0);
      char msg[64];
      char back[64];
      for (int m = 0; m < kMsgsPerClient; ++m) {
        int len = std::snprintf(msg, sizeof(msg), "c%d-m%d", c, m);
        ASSERT_EQ(net_.sys_send(p, fd, msg, static_cast<std::size_t>(len)),
                  static_cast<SysRet>(len));
        std::size_t got = 0;
        while (got < static_cast<std::size_t>(len)) {
          SysRet r = net_.sys_recv(p, fd, back + got, sizeof(back) - got);
          ASSERT_GT(r, 0);
          got += static_cast<std::size_t>(r);
        }
        ASSERT_EQ(std::memcmp(msg, back, got), 0);
      }
      cli.close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  server.join();
  EXPECT_EQ(echoed.load(), kClients * kMsgsPerClient);
}

// Two tasks stream seeded bytes both ways over one connection through a
// 61-byte receive queue, so each direction wraps thousands of times at
// shifting offsets, while a third thread reads Net::stats(). Nonblocking
// sockets let each task interleave its send and its recv. Every byte
// arrives in order, and bytes_sent ends at the sum sent. Its name puts it
// in the ThreadSanitizer run (run_tier1.sh tsan selects 'Smp').
TEST(SmpSocketTest, StreamBothWaysThroughAWrappingQueue) {
  constexpr std::size_t kBytes = 192 * 1024;
  constexpr std::uint16_t kPort = 7300;
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  NetCosts costs;
  costs.rx_capacity = 61;
  Net net(kernel, costs);
  const std::vector<std::byte> streams[2] = {seeded_bytes(11, kBytes),
                                             seeded_bytes(12, kBytes)};
  std::atomic<bool> listening{false};
  std::atomic<bool> connected{false};
  std::atomic<int> finished{0};
  // Set by either side on a failed check, so that every wait below ends
  // and the test fails instead of hanging on its peer.
  std::atomic<bool> failed{false};
  const auto check = [&failed](bool ok) {
    if (!ok) failed.store(true, std::memory_order_release);
    return ok;
  };
  const auto wait_for = [&failed](const auto& cond) {
    while (!cond() && !failed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return !failed.load(std::memory_order_acquire);
  };

  // Side 0 is the client; side 1 accepts. Each sends streams[side] and
  // must receive streams[1 - side].
  auto side = [&](int me) {
    uk::Proc proc(kernel, me == 0 ? "smp-cli" : "smp-srv");
    uk::Process& p = proc.process();
    int fd = -1;
    if (me == 1) {
      const int lfd = static_cast<int>(net.sys_socket(p, kSockNonblock));
      EXPECT_TRUE(check(net.sys_bind(p, lfd, kPort) == 0 &&
                        net.sys_listen(p, lfd, 1) == 0));
      listening.store(true, std::memory_order_release);
      if (wait_for([&] { return connected.load(std::memory_order_acquire); })) {
        fd = static_cast<int>(net.sys_accept(p, lfd));
        EXPECT_TRUE(check(fd >= 0)) << fd;
      }
      proc.close(lfd);
    } else if (wait_for(
                   [&] { return listening.load(std::memory_order_acquire); })) {
      fd = static_cast<int>(net.sys_socket(p, kSockNonblock));
      EXPECT_TRUE(check(net.sys_connect(p, fd, kPort) == 0));
      connected.store(true, std::memory_order_release);
    }
    const std::vector<std::byte>& out = streams[me];
    const std::vector<std::byte>& want = streams[1 - me];
    std::vector<std::byte> got(kBytes);
    base::Rng rng(static_cast<std::uint64_t>(me) + 40);
    std::size_t sent = 0;
    std::size_t recvd = 0;
    while (!failed.load(std::memory_order_acquire) &&
           (sent < kBytes || recvd < kBytes)) {
      bool moved = false;
      if (sent < kBytes) {
        const std::size_t n = std::min<std::size_t>(rng.range(1, 150),
                                                    kBytes - sent);
        const SysRet r = net.sys_send(p, fd, out.data() + sent, n);
        if (!check(r > 0 || r == sysret_err(Errno::kEAGAIN))) {
          ADD_FAILURE() << "send returned " << r;
          break;
        }
        if (r > 0) sent += static_cast<std::size_t>(r);
        moved |= r > 0;
      }
      if (recvd < kBytes) {
        const std::size_t n = std::min<std::size_t>(rng.range(1, 150),
                                                    kBytes - recvd);
        const SysRet r = net.sys_recv(p, fd, got.data() + recvd, n);
        if (!check(r > 0 || r == sysret_err(Errno::kEAGAIN))) {
          ADD_FAILURE() << "recv returned " << r;
          break;
        }
        if (r > 0) recvd += static_cast<std::size_t>(r);
        moved |= r > 0;
      }
      if (!moved) std::this_thread::yield();
    }
    if (!failed.load(std::memory_order_acquire)) {
      EXPECT_EQ(got, want);
    }
    // Close only once the peer has drained this side's bytes too.
    finished.fetch_add(1, std::memory_order_acq_rel);
    wait_for([&] { return finished.load(std::memory_order_acquire) == 2; });
    if (fd >= 0) proc.close(fd);
  };

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const NetStats st = net.stats();
      EXPECT_GE(st.bytes_sent, last);
      EXPECT_LE(st.bytes_sent, 2 * kBytes);
      last = st.bytes_sent;
      std::this_thread::yield();
    }
  });
  std::thread a(side, 0);
  std::thread b(side, 1);
  a.join();
  b.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(net.stats().bytes_sent, 2 * kBytes);
  EXPECT_EQ(net.stats().conns_accepted, 1u);
}

}  // namespace
}  // namespace usk::net
