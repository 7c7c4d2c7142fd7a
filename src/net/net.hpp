// The in-kernel network stack: loopback transport, server socket
// syscalls, and the epoll multiplexer.
//
// Net owns the socket/epoll tables and the port namespace and fills the
// kernel's numbered syscall table with the socket family (socket/bind/
// listen/accept/connect/send/recv/shutdown, epoll_create/ctl/wait), so
// every vehicle reaches them the way it reaches the file calls: syscall()
// for one crossing, dispatch_nested() inside a ring drain or a
// consolidated call. Buffers move through uk::CallerBuf, so the copy
// accounting is the file handlers'. SocketFs adapts sockets to
// fs::FileSystem so a socket fd is a first-class VFS descriptor --
// read(2)/write(2)/close(2)/dup(2) and Cosy compound kRead/kWrite ops
// work on connections with no special cases.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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
  std::atomic<int> refs_{1};

 private:
  const fs::InodeNum id_;
};

class Net;

/// fs::FileSystem adapter: sockets (and epoll instances) behind the fd
/// table. read() -> recv, write() -> send; namespace operations are
/// rejected (a socket has no name). release_file/dup_file drive the
/// per-socket fd refcount so dup'd descriptors share one connection.
class SocketFs final : public fs::FileSystem {
 public:
  explicit SocketFs(Net& net) : net_(net) {}

  [[nodiscard]] fs::InodeNum root() const override { return 0; }
  [[nodiscard]] const char* fstype() const override { return "sockfs"; }

  Result<fs::InodeNum> lookup(fs::InodeNum, std::string_view) override {
    return Errno::kENOENT;
  }
  Result<fs::InodeNum> create(fs::InodeNum, std::string_view, fs::FileType,
                              std::uint32_t) override {
    return Errno::kEPERM;
  }
  Result<void> unlink(fs::InodeNum, std::string_view) override {
    return Errno::kEPERM;
  }
  Result<void> rmdir(fs::InodeNum, std::string_view) override {
    return Errno::kEPERM;
  }
  Result<void> rename(fs::InodeNum, std::string_view, fs::InodeNum,
               std::string_view) override {
    return Errno::kEPERM;
  }
  Result<void> truncate(fs::InodeNum, std::uint64_t) override {
    return Errno::kEINVAL;
  }
  Result<std::vector<fs::DirEntry>> readdir(fs::InodeNum) override {
    return Errno::kENOTDIR;
  }

  Result<std::size_t> read(fs::InodeNum ino, std::uint64_t offset,
                           std::span<std::byte> out) override;
  Result<std::size_t> write(fs::InodeNum ino, std::uint64_t offset,
                            std::span<const std::byte> in) override;
  Result<void> getattr(fs::InodeNum ino, fs::StatBuf* st) override;
  void release_file(fs::InodeNum ino) override;
  void dup_file(fs::InodeNum ino) override;

 private:
  Net& net_;
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
  Result<std::shared_ptr<Socket>> socket_of(uk::Process& p, int fd);

  // --- lifetime hooks (SocketFs) -------------------------------------------
  void fd_released(fs::InodeNum ino);
  void fd_duped(fs::InodeNum ino);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] uk::Kernel& kernel() { return k_; }
  [[nodiscard]] const NetCosts& costs() const { return costs_; }
  [[nodiscard]] SocketFs& sockfs() { return sockfs_; }
  [[nodiscard]] NetStats stats() const;
  [[nodiscard]] std::shared_ptr<Socket> find_socket(fs::InodeNum ino);
  [[nodiscard]] std::shared_ptr<Epoll> find_epoll(fs::InodeNum ino);
  /// Sockets still registered (not yet released by their last fd): the
  /// kdl leak oracle asserts this returns to its baseline after every
  /// cancellation storm.
  [[nodiscard]] std::size_t live_sockets() const {
    std::lock_guard lk(tab_mu_);
    return sockets_.size();
  }

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
  friend class SocketFs;

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
  /// Make a socket fd visible through the VFS.
  Result<int> install_fd(uk::Process& p, const std::shared_ptr<Socket>& s);

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

  std::shared_ptr<Socket> make_socket(bool nonblock);
  void drop_socket(const std::shared_ptr<Socket>& s);
  void drop_epoll(const std::shared_ptr<Epoll>& ep);
  /// Wake every epoll watching `s`. Caller holds s.mu_ (socket -> epoll).
  static void notify_watchers_locked(Socket& s);

  uk::Kernel& k_;
  NetCosts costs_;
  SocketFs sockfs_;

  mutable std::mutex tab_mu_;
  fs::InodeNum next_ino_ = 1;
  std::map<fs::InodeNum, std::shared_ptr<Socket>> sockets_;
  std::map<fs::InodeNum, std::shared_ptr<Epoll>> epolls_;
  std::map<std::uint16_t, std::weak_ptr<Socket>> ports_;

  mutable std::mutex stats_mu_;
  NetStats nstats_;
  fs::ProcFs::Registration proc_;  ///< last: leaves before the state
};

}  // namespace usk::net
