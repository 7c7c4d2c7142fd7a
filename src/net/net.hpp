// The in-kernel network stack: loopback transport, server socket
// syscalls, and the epoll multiplexer.
//
// Net owns the port namespace and two fd-object tables, and fills the
// kernel's numbered syscall table with the socket family (socket/bind/
// listen/accept/connect/send/recv/shutdown, epoll_create/ctl/wait), so
// every vehicle reaches them the way it reaches the file calls: syscall()
// for one crossing, dispatch_nested() inside a ring drain or a
// consolidated call. Buffers move through uk::CallerBuf, so the copy
// accounting is the file handlers'. Sockets and epoll instances each live
// in an fs::AnonFs, the anonymous-inode table rings share, so a socket fd
// is a first-class VFS descriptor -- read(2)/write(2)/close(2)/dup(2) and
// Cosy compound kRead/kWrite ops work on connections with no special
// cases -- and Net keeps only the per-kind parts: recv/send/stat on a
// socket fd, and drop_socket as a socket's last close.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fs/anonfs.hpp"
#include "fs/procfs.hpp"
#include "net/socket.hpp"
#include "uk/kernel.hpp"

namespace usk::net {

/// socket() flags.
inline constexpr int kSockNonblock = 0x1;

/// shutdown() modes.
inline constexpr int kShutRd = 0;
inline constexpr int kShutWr = 1;
inline constexpr int kShutRdWr = 2;

/// epoll_ctl ops.
inline constexpr int kEpollCtlAdd = 1;
inline constexpr int kEpollCtlDel = 2;
inline constexpr int kEpollCtlMod = 3;

/// Wire format copied to user by epoll_wait (uk::kEpollEventBytes).
struct EpollEvent {
  std::int32_t fd = -1;
  std::uint32_t events = 0;
};

/// One epoll instance: watched (userfd -> socket) entries plus a
/// WaitQueue for parked epoll_wait callers. Level-triggered: epoll_wait
/// re-derives readiness from socket state on every call, so still-ready
/// fds re-arm; the WaitQueue only drives wakeups (a waiter takes its
/// token before scanning, so a signal racing the scan voids the park).
/// Lock order: socket -> epoll (see socket.hpp).
class Epoll {
 public:
  explicit Epoll(fs::InodeNum id) : id_(id) {}

  [[nodiscard]] fs::InodeNum id() const { return id_; }

  /// Called by a socket (its lock held) when readiness may have risen.
  void signal() { wq_.wake_all(); }

  std::mutex mu_;
  sched::WaitQueue wq_;
  struct Entry {
    std::weak_ptr<Socket> sock;
    std::uint32_t events = 0;
  };
  std::map<int, Entry> entries_;  ///< userfd -> watched socket

 private:
  const fs::InodeNum id_;
};

struct NetStats {
  std::uint64_t sockets_created = 0;
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_refused = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t sendfile_bytes = 0;  ///< kernel-side file->socket bytes
};

class Net {
 public:
  /// Registers the socket family in `k`'s syscall table (one Net per
  /// Kernel); the destructor releases it.
  explicit Net(uk::Kernel& k, NetCosts costs = NetCosts{});
  ~Net();

  // --- the server syscall family (typed wrappers over Kernel::syscall) -----
  SysRet sys_socket(uk::Process& p, int flags = 0);
  SysRet sys_bind(uk::Process& p, int fd, std::uint16_t port);
  SysRet sys_listen(uk::Process& p, int fd, int backlog);
  SysRet sys_accept(uk::Process& p, int fd);
  SysRet sys_connect(uk::Process& p, int fd, std::uint16_t port);
  SysRet sys_send(uk::Process& p, int fd, const void* ubuf, std::size_t n);
  SysRet sys_recv(uk::Process& p, int fd, void* ubuf, std::size_t n);
  SysRet sys_shutdown(uk::Process& p, int fd, int how);
  SysRet sys_epoll_create(uk::Process& p);
  SysRet sys_epoll_ctl(uk::Process& p, int epfd, int op, int fd,
                       std::uint32_t events);
  SysRet sys_epoll_wait(uk::Process& p, int epfd, EpollEvent* uevents,
                        int maxevents, int timeout_ms);

  /// The socket behind `fd`, or kEBADF / kENOTSOCK.
  Result<std::shared_ptr<Socket>> socket_of(uk::Process& p, int fd) {
    return sockets_.of(p.fds, fd);
  }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] uk::Kernel& kernel() { return k_; }
  [[nodiscard]] const NetCosts& costs() const { return costs_; }
  [[nodiscard]] NetStats stats() const;
  /// Sockets still registered (not yet released by their last fd): the
  /// kdl leak oracle asserts this returns to its baseline after every
  /// cancellation storm.
  [[nodiscard]] std::size_t live_sockets() const { return sockets_.size(); }

  /// Render /proc/net/** style tables (also used directly by tests).
  [[nodiscard]] std::string format_stats() const;
  [[nodiscard]] std::string format_sockets();
  [[nodiscard]] std::string format_listeners();

  /// Register /proc/net/{stats,sockets,listeners} on `pfs` until this
  /// Net is destroyed (EEXIST: another Net holds them). Lives here rather
  /// than uk/kproc.cpp because uk cannot depend on net.
  Errno register_proc(fs::ProcFs& pfs);

  /// Charge modelled network work to the engine + current task.
  void charge(std::uint64_t units);

 private:
  // --- table handlers (Scope-free; see uk::Kernel::register_syscall) -------
  using SysArgs = uk::Kernel::SysArgs;
  SysRet handle_socket(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_bind(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_listen(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_accept(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_connect(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_send(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_recv(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_shutdown(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_epoll_create(uk::Process& p, const SysArgs& a,
                             uk::BufMode m);
  SysRet handle_epoll_ctl(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_epoll_wait(uk::Process& p, const SysArgs& a, uk::BufMode m);
  // Consolidated server calls (§2.2): accept+recv and the whole response
  // path, each behind one crossing.
  SysRet handle_accept_recv(uk::Process& p, const SysArgs& a, uk::BufMode m);
  SysRet handle_sendfile(uk::Process& p, const SysArgs& a, uk::BufMode m);

  // --- kernel-side transport (no crossing, no user copies) -----------------
  // Each charges the modelled network work to the current task.

  /// Pop one queued connection off listener `ls` (blocking per the
  /// listener's nonblock flag) and install an fd for it.
  Result<int> accept_pop(uk::Process& p, Socket& ls);
  /// Drain up to out.size() bytes into a kernel buffer. Returns 0 at EOF.
  Result<std::size_t> recv_into(Socket& s, std::span<std::byte> out);
  /// Push a kernel buffer into the peer's rx queue (blocking on a full
  /// queue unless the socket is nonblocking).
  Result<std::size_t> send_from(Socket& s, std::span<const std::byte> in);

  /// Park the current task on `wq` until pred() holds. `lk` must guard
  /// the state pred() reads AND be the lock wakers hold when they mutate
  /// it + wake, which is what makes the token handshake lossless (see
  /// sched/waitqueue.hpp). Watchdog-safe: every park schedules the task
  /// out, so a task stuck on a dead socket is killed by the same budget
  /// policy as any runaway kernel work. Returns kEINTR if the task was
  /// killed while parked.
  template <typename Pred>
  Errno block_on(std::unique_lock<std::mutex>& lk, sched::WaitQueue& wq,
                 Pred&& pred);

  /// Register a socket; it counts as open until drop_socket.
  std::shared_ptr<Socket> make_socket(bool nonblock);
  /// Close `s` (its last fd went, or it never got one) and unregister it.
  void drop_socket(const std::shared_ptr<Socket>& s);
  /// Wake every epoll watching `s`. Caller holds s.mu_ (socket -> epoll).
  static void notify_watchers_locked(Socket& s);

  uk::Kernel& k_;
  NetCosts costs_;
  /// Socket fds: read/write are recv/send, the last close is drop_socket.
  fs::AnonFs<Socket> sockets_;
  /// Epoll fds: neither readable nor writable; the last close unregisters.
  fs::AnonFs<Epoll> epolls_;

  std::mutex ports_mu_;  ///< guards ports_; taken before a socket's mu_
  std::map<std::uint16_t, std::weak_ptr<Socket>> ports_;

  /// NetStats as relaxed atomics: a send bumps two of them with no
  /// Net-wide lock; stats() loads each into a snapshot.
  struct Counters {
    std::atomic<std::uint64_t> sockets_created{0};
    std::atomic<std::uint64_t> conns_accepted{0};
    std::atomic<std::uint64_t> conns_refused{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> packets_sent{0};
    std::atomic<std::uint64_t> sendfile_bytes{0};
  };
  Counters nstats_;
  fs::ProcFs::Registration proc_;  ///< last: leaves before the state
};

}  // namespace usk::net
