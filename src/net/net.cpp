// Loopback transport + server socket syscalls (see net.hpp).

#include "net/net.hpp"

#include <algorithm>
#include <chrono>

#include "fault/kfail.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::net {

const char* sock_state_name(SockState s) {
  switch (s) {
    case SockState::kNew: return "new";
    case SockState::kBound: return "bound";
    case SockState::kListening: return "listening";
    case SockState::kConnected: return "connected";
    case SockState::kClosed: return "closed";
  }
  return "?";
}

namespace {
/// Sentinel fs_id for descriptors owned by SocketFs: sockets never take
/// part in path-walk or mount bookkeeping, which is all fs_id is for.
constexpr std::uint32_t kSockFsId = 0xFFFFFFFFu;
}  // namespace

using uk::Kernel;
using uk::Sys;

// The signature table sizes epoll_wait's event array without naming net.
static_assert(sizeof(EpollEvent) == uk::kEpollEventBytes);

Net::Net(uk::Kernel& k, NetCosts costs)
    : k_(k), costs_(costs), sockfs_(*this) {
  k_.register_syscall<&Net::handle_socket>(Sys::kSocket, this);
  k_.register_syscall<&Net::handle_bind>(Sys::kBind, this);
  k_.register_syscall<&Net::handle_listen>(Sys::kListen, this);
  k_.register_syscall<&Net::handle_accept>(Sys::kAccept, this);
  k_.register_syscall<&Net::handle_connect>(Sys::kConnect, this);
  k_.register_syscall<&Net::handle_send>(Sys::kSend, this);
  k_.register_syscall<&Net::handle_recv>(Sys::kRecv, this);
  k_.register_syscall<&Net::handle_shutdown>(Sys::kShutdown, this);
  k_.register_syscall<&Net::handle_epoll_create>(Sys::kEpollCreate, this);
  k_.register_syscall<&Net::handle_epoll_ctl>(Sys::kEpollCtl, this);
  k_.register_syscall<&Net::handle_epoll_wait>(Sys::kEpollWait, this);
  k_.register_syscall<&Net::handle_accept_recv>(Sys::kAcceptRecv, this);
  k_.register_syscall<&Net::handle_sendfile>(Sys::kSendfile, this);
}

Net::~Net() {
  for (Sys nr : {Sys::kSocket, Sys::kBind, Sys::kListen, Sys::kAccept,
                 Sys::kConnect, Sys::kSend, Sys::kRecv, Sys::kShutdown,
                 Sys::kEpollCreate, Sys::kEpollCtl, Sys::kEpollWait,
                 Sys::kAcceptRecv, Sys::kSendfile}) {
    k_.unregister_syscall(nr);
  }
}

// --- typed wrappers (the userlib-facing ABI) --------------------------------

SysRet Net::sys_socket(uk::Process& p, int flags) {
  return k_.syscall(p, Sys::kSocket, {Kernel::iarg(flags)});
}
SysRet Net::sys_bind(uk::Process& p, int fd, std::uint16_t port) {
  return k_.syscall(p, Sys::kBind, {Kernel::iarg(fd), port});
}
SysRet Net::sys_listen(uk::Process& p, int fd, int backlog) {
  return k_.syscall(p, Sys::kListen, {Kernel::iarg(fd), Kernel::iarg(backlog)});
}
SysRet Net::sys_accept(uk::Process& p, int fd) {
  return k_.syscall(p, Sys::kAccept, {Kernel::iarg(fd)});
}
SysRet Net::sys_connect(uk::Process& p, int fd, std::uint16_t port) {
  return k_.syscall(p, Sys::kConnect, {Kernel::iarg(fd), port});
}
SysRet Net::sys_send(uk::Process& p, int fd, const void* ubuf,
                     std::size_t n) {
  return k_.syscall(p, Sys::kSend, {Kernel::iarg(fd), Kernel::uarg(ubuf), n});
}
SysRet Net::sys_recv(uk::Process& p, int fd, void* ubuf, std::size_t n) {
  return k_.syscall(p, Sys::kRecv, {Kernel::iarg(fd), Kernel::uarg(ubuf), n});
}
SysRet Net::sys_shutdown(uk::Process& p, int fd, int how) {
  return k_.syscall(p, Sys::kShutdown, {Kernel::iarg(fd), Kernel::iarg(how)});
}
SysRet Net::sys_epoll_create(uk::Process& p) {
  return k_.syscall(p, Sys::kEpollCreate);
}
SysRet Net::sys_epoll_ctl(uk::Process& p, int epfd, int op, int fd,
                          std::uint32_t events) {
  return k_.syscall(p, Sys::kEpollCtl, {Kernel::iarg(epfd), Kernel::iarg(op),
                                        Kernel::iarg(fd), events});
}
SysRet Net::sys_epoll_wait(uk::Process& p, int epfd, EpollEvent* uevents,
                           int maxevents, int timeout_ms) {
  return k_.syscall(p, Sys::kEpollWait,
                    {Kernel::iarg(epfd), Kernel::uarg(uevents),
                     Kernel::iarg(maxevents), Kernel::iarg(timeout_ms)});
}

void Net::charge(std::uint64_t units) {
  k_.engine().alu(units);
  if (sched::Task* t = k_.scheduler().current()) t->charge_kernel(units);
}

NetStats Net::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return NetStats{
      .sockets_created = nstats_.sockets_created.load(kRelaxed),
      .conns_accepted = nstats_.conns_accepted.load(kRelaxed),
      .conns_refused = nstats_.conns_refused.load(kRelaxed),
      .bytes_sent = nstats_.bytes_sent.load(kRelaxed),
      .packets_sent = nstats_.packets_sent.load(kRelaxed),
      .sendfile_bytes = nstats_.sendfile_bytes.load(kRelaxed),
  };
}

template <typename Pred>
Errno Net::block_on(std::unique_lock<std::mutex>& lk, sched::WaitQueue& wq,
                    Pred&& pred) {
  for (;;) {
    // Token before predicate, both under lk: every waker mutates the
    // predicate's state under lk before waking, so a wake posted after
    // this snapshot means the predicate may have changed and the park
    // returns immediately. No readiness re-poll interval exists.
    sched::WaitQueue::Token tok = wq.prepare();
    if (pred()) return Errno::kOk;
    lk.unlock();
    // Park = schedule out: the watchdog runs here, so a task blocked on a
    // socket that will never become ready is killed by the same kernel
    // budget policy as any runaway in-kernel loop (paper §3: user code in
    // the kernel must stay preemptible and killable even when it waits).
    // The request's deadline bounds the park (no timeout of its own).
    Result<uk::Kernel::Parked> w = k_.park(wq, tok);
    lk.lock();
    if (!w) return w.error();
  }
}

std::shared_ptr<Socket> Net::make_socket(bool nonblock) {
  std::lock_guard lk(tab_mu_);
  fs::InodeNum ino = next_ino_++;
  auto s = std::make_shared<Socket>(ino, costs_, nonblock);
  sockets_[ino] = s;
  nstats_.sockets_created.fetch_add(1, std::memory_order_relaxed);
  return s;
}

std::shared_ptr<Socket> Net::find_socket(fs::InodeNum ino) {
  std::lock_guard lk(tab_mu_);
  auto it = sockets_.find(ino);
  return it == sockets_.end() ? nullptr : it->second;
}

std::shared_ptr<Epoll> Net::find_epoll(fs::InodeNum ino) {
  std::lock_guard lk(tab_mu_);
  auto it = epolls_.find(ino);
  return it == epolls_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<Socket>> Net::socket_of(uk::Process& p, int fd) {
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  if (f->fsp != &sockfs_) return Errno::kENOTSOCK;
  std::shared_ptr<Socket> s = find_socket(f->ino);
  if (s == nullptr) return Errno::kENOTSOCK;  // an epoll fd, or stale
  return s;
}

Result<int> Net::install_fd(uk::Process& p, const std::shared_ptr<Socket>& s) {
  fs::OpenFile f;
  f.ino = s->id();
  f.flags = fs::kORdWr;
  f.fsp = &sockfs_;
  f.fs_id = kSockFsId;
  return p.fds.install(f);
}

void Net::notify_watchers_locked(Socket& s) {
  for (auto& [wep, userfd] : s.watchers_) {
    if (std::shared_ptr<Epoll> ep = wep.lock()) ep->signal();
  }
}

// --- socket / bind / listen ------------------------------------------------

SysRet Net::handle_socket(uk::Process& p, const SysArgs& a,
                          uk::BufMode /*m*/) {
  const int flags = static_cast<int>(a.a0);
  std::shared_ptr<Socket> s = make_socket((flags & kSockNonblock) != 0);
  Result<int> fd = install_fd(p, s);
  if (!fd) {
    drop_socket(s);
    return sysret_err(fd.error());
  }
  return fd.value();
}

SysRet Net::handle_bind(uk::Process& p, const SysArgs& a,
                        uk::BufMode /*m*/) {
  const int fd = static_cast<int>(a.a0);
  const auto port = static_cast<std::uint16_t>(a.a1);
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  Socket& s = *rs.value();
  if (port == 0) return sysret_err(Errno::kEINVAL);
  std::lock_guard tlk(tab_mu_);
  std::lock_guard slk(s.mu_);
  if (s.state_ != SockState::kNew) return sysret_err(Errno::kEINVAL);
  auto it = ports_.find(port);
  if (it != ports_.end() && !it->second.expired()) {
    return sysret_err(Errno::kEADDRINUSE);
  }
  ports_[port] = rs.value();
  s.port_ = port;
  s.state_ = SockState::kBound;
  return 0;
}

SysRet Net::handle_listen(uk::Process& p, const SysArgs& a,
                          uk::BufMode /*m*/) {
  const int fd = static_cast<int>(a.a0);
  const int backlog = static_cast<int>(a.a1);
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  Socket& s = *rs.value();
  std::lock_guard slk(s.mu_);
  if (s.state_ != SockState::kBound) return sysret_err(Errno::kEINVAL);
  s.backlog_ = std::clamp(backlog, 1, costs_.backlog_max);
  s.state_ = SockState::kListening;
  return 0;
}

// --- connect ---------------------------------------------------------------

SysRet Net::handle_connect(uk::Process& p, const SysArgs& a,
                           uk::BufMode /*m*/) {
  const int fd = static_cast<int>(a.a0);
  const auto port = static_cast<std::uint16_t>(a.a1);
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  std::shared_ptr<Socket> cli = rs.value();
  {
    std::lock_guard clk(cli->mu_);
    if (cli->state_ == SockState::kConnected) {
      return sysret_err(Errno::kEISCONN);
    }
    if (cli->state_ != SockState::kNew) return sysret_err(Errno::kEINVAL);
  }

  std::shared_ptr<Socket> lsn;
  {
    std::lock_guard tlk(tab_mu_);
    auto it = ports_.find(port);
    if (it != ports_.end()) lsn = it->second.lock();
  }
  bool refused = lsn == nullptr;
  if (!refused) {
    std::lock_guard llk(lsn->mu_);
    refused = lsn->state_ != SockState::kListening;
  }
  if (refused) {
    nstats_.conns_refused.fetch_add(1, std::memory_order_relaxed);
    return sysret_err(Errno::kECONNREFUSED);
  }

  // Build the server-side half. Not yet published, so no lock needed.
  std::shared_ptr<Socket> srv = make_socket(false);
  srv->state_ = SockState::kConnected;
  srv->port_ = port;
  srv->peer_ = cli;
  srv->nonblock_ = lsn->nonblock_;  // accepted conns inherit the listener's

  charge(costs_.connect_setup);

  // Queue it on the listener; a full backlog blocks (or EAGAIN).
  {
    std::unique_lock llk(lsn->mu_);
    bool cli_nonblock = false;
    {
      std::lock_guard clk(cli->mu_);  // never held with llk? -- see below
      cli_nonblock = cli->nonblock_;
    }
    // NOTE: the nested lock above violates the one-socket-lock rule on
    // paper, but cli is unpublished to any other thread's send/recv path
    // at this point (not connected) and listener code never locks a
    // client, so no cycle is possible. Kept for clarity over caching.
    while (lsn->accept_q_.size() >=
           static_cast<std::size_t>(lsn->backlog_)) {
      if (cli_nonblock) {
        drop_socket(srv);
        return sysret_err(Errno::kEAGAIN);
      }
      Errno be = block_on(llk, lsn->wq_, [&] {
        return lsn->state_ != SockState::kListening ||
               lsn->accept_q_.size() <
                   static_cast<std::size_t>(lsn->backlog_);
      });
      if (be != Errno::kOk) {
        drop_socket(srv);
        return sysret_err(be);
      }
      if (lsn->state_ != SockState::kListening) {
        drop_socket(srv);
        return sysret_err(Errno::kECONNREFUSED);
      }
    }
    lsn->accept_q_.push_back(srv);
    notify_watchers_locked(*lsn);
    lsn->wq_.wake_all();
  }

  {
    std::lock_guard clk(cli->mu_);
    cli->state_ = SockState::kConnected;
    cli->peer_ = srv;
    cli->peer_port_ = port;
  }
  return 0;
}

// --- accept ----------------------------------------------------------------

Result<int> Net::accept_pop(uk::Process& p, Socket& ls) {
  if (auto f = USK_FAIL_POINT(fault::Site::kNetAccept); f.fail) return f.err;
  std::shared_ptr<Socket> conn;
  {
    std::unique_lock llk(ls.mu_);
    if (ls.state_ != SockState::kListening) return Errno::kEINVAL;
    if (ls.accept_q_.empty()) {
      if (ls.nonblock_) return Errno::kEAGAIN;
      Errno be = block_on(llk, ls.wq_, [&] {
        return !ls.accept_q_.empty() ||
               ls.state_ != SockState::kListening;
      });
      if (be != Errno::kOk) return be;
      if (ls.accept_q_.empty()) return Errno::kEINVAL;  // listener closed
    }
    conn = ls.accept_q_.front();
    ls.accept_q_.pop_front();
    ls.wq_.wake_all();  // a connect parked on a full backlog
  }
  charge(costs_.accept_setup);
  Result<int> fd = install_fd(p, conn);
  if (!fd) {
    drop_socket(conn);
    return fd.error();
  }
  nstats_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
  return fd;
}

SysRet Net::handle_accept(uk::Process& p, const SysArgs& a,
                          uk::BufMode /*m*/) {
  const int fd = static_cast<int>(a.a0);
  USK_TRACE_LATENCY("net", "accept");
  USK_TRACEPOINT("net", "accept", static_cast<std::uint64_t>(fd));
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  Result<int> r = accept_pop(p, *rs.value());
  if (!r) return sysret_err(r.error());
  // Request ingress: stamp the event stream with the enclosing span, so a
  // drained trace can join point events to the span tree.
  USK_TRACEPOINT("span", "ingress", trace::SpanScope::current_id(),
                 static_cast<std::uint64_t>(r.value()));
  return r.value();
}

// --- send / recv -----------------------------------------------------------

Result<std::size_t> Net::send_from(Socket& s,
                                   std::span<const std::byte> in) {
  if (auto f = USK_FAIL_POINT(fault::Site::kNetSend); f.fail || f.transient) {
    if (f.fail) return f.err;
    charge(costs_.per_packet);  // transient: one retransmit's worth of work
  }
  std::shared_ptr<Socket> peer;
  bool nonblock = false;
  {
    std::lock_guard slk(s.mu_);
    if (s.state_ != SockState::kConnected) return Errno::kENOTCONN;
    if (s.tx_shutdown_) return Errno::kEPIPE;
    peer = s.peer_.lock();
    nonblock = s.nonblock_;
  }
  if (peer == nullptr) return Errno::kECONNRESET;

  std::size_t sent = 0;
  while (sent < in.size()) {
    std::size_t pushed = 0;
    {
      std::unique_lock plk(peer->mu_);
      if (peer->state_ == SockState::kClosed || peer->rd_shutdown_) {
        if (sent > 0) break;
        return Errno::kECONNRESET;
      }
      if (peer->rx_.free_space() == 0) {
        if (nonblock) {
          if (sent > 0) break;
          return Errno::kEAGAIN;
        }
        Errno be = block_on(plk, peer->wq_, [&] {
          return peer->rx_.free_space() > 0 ||
                 peer->state_ == SockState::kClosed || peer->rd_shutdown_;
        });
        if (be != Errno::kOk) return be;
        continue;  // re-check closed/space with the lock held
      }
      pushed = peer->rx_.push(in.subspan(sent));
      peer->bytes_rx_ += pushed;
      peer->pkts_rx_ += (pushed + costs_.mtu - 1) / costs_.mtu;
      notify_watchers_locked(*peer);  // socket -> epoll lock order
    }
    // The modelled wire: per-packet protocol work + per-KiB data work.
    // A receiver parked on the queue is woken only after it: delivery
    // follows transmit work, and the peer's next step never overlaps
    // this charge (whether it did would depend on which host CPU the
    // woken thread landed on). The push above was under the peer's lock,
    // so a sleeper's token is already stale or this wake reaches it.
    std::uint64_t pkts = (pushed + costs_.mtu - 1) / costs_.mtu;
    charge(pkts * costs_.per_packet +
           ((pushed + 1023) / 1024) * costs_.per_kib);
    peer->wq_.wake_all();
    {
      std::lock_guard slk(s.mu_);
      s.bytes_tx_ += pushed;
      s.pkts_tx_ += pkts;
    }
    nstats_.bytes_sent.fetch_add(pushed, std::memory_order_relaxed);
    nstats_.packets_sent.fetch_add(pkts, std::memory_order_relaxed);
    sent += pushed;
  }
  return sent;
}

Result<std::size_t> Net::recv_into(Socket& s, std::span<std::byte> out) {
  if (out.empty()) return std::size_t{0};
  if (auto f = USK_FAIL_POINT(fault::Site::kNetRecv); f.fail || f.transient) {
    if (f.fail) return f.err;
    charge(costs_.per_packet);  // transient: a dropped+retransmitted packet
  }
  std::unique_lock slk(s.mu_);
  for (;;) {
    if (s.rd_shutdown_) return std::size_t{0};
    if (s.rx_.size() > 0) {
      std::size_t n = s.rx_.pop(out);
      s.wq_.wake_all();  // a sender parked on a full queue
      slk.unlock();
      charge(((n + 1023) / 1024) * costs_.per_kib);
      return n;
    }
    if (s.rx_eof_ || s.state_ == SockState::kClosed ||
        (s.state_ == SockState::kConnected && s.peer_.expired())) {
      return std::size_t{0};
    }
    if (s.state_ != SockState::kConnected) return Errno::kENOTCONN;
    if (s.nonblock_) return Errno::kEAGAIN;
    Errno be = block_on(slk, s.wq_, [&] {
      return s.rx_.size() > 0 || s.rx_eof_ || s.rd_shutdown_ ||
             s.state_ != SockState::kConnected || s.peer_.expired();
    });
    if (be != Errno::kOk) return be;
  }
}

SysRet Net::handle_send(uk::Process& p, const SysArgs& a, uk::BufMode m) {
  const int fd = static_cast<int>(a.a0);
  USK_TRACE_LATENCY("net", "send");
  USK_TRACEPOINT("net", "send", static_cast<std::uint64_t>(fd), a.a2);
  // Validate the descriptor before even looking at the user pointer (the
  // uniform EBADF discipline: send(-1, NULL, n) is EBADF, not EFAULT,
  // and no boundary work is charged on a bad fd).
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  const std::size_t n =
      std::min(static_cast<std::size_t>(a.a2), uk::Kernel::kMaxIo);
  uk::CallerBuf buf(k_.boundary(), p.task, m, a.a1, n);
  if (Result<std::size_t> c = buf.in(); !c) return sysret_err(c.error());
  Result<std::size_t> r = send_from(*rs.value(), std::span(buf.data(), n));
  if (!r) return sysret_err(r.error());
  return static_cast<SysRet>(r.value());
}

SysRet Net::handle_recv(uk::Process& p, const SysArgs& a, uk::BufMode m) {
  const int fd = static_cast<int>(a.a0);
  USK_TRACE_LATENCY("net", "recv");
  USK_TRACEPOINT("net", "recv", static_cast<std::uint64_t>(fd), a.a2);
  // fd first, user pointer second: recv(-1, NULL, n) is EBADF, not
  // EFAULT (same discipline as send).
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  const std::size_t n =
      std::min(static_cast<std::size_t>(a.a2), uk::Kernel::kMaxIo);
  uk::CallerBuf buf(k_.boundary(), p.task, m, a.a1, n);
  std::byte* kbuf = buf.data();
  Result<std::size_t> r = recv_into(*rs.value(), std::span(kbuf, n));
  if (!r) return sysret_err(r.error());
  if (r.value() > 0) {
    // The bytes were already drained from the socket; a faulted copy-out
    // loses them, exactly like a real recv whose user page vanished.
    if (Result<std::size_t> c = buf.out(kbuf, r.value()); !c) {
      return sysret_err(c.error());
    }
  }
  return static_cast<SysRet>(r.value());
}

// --- consolidated calls ----------------------------------------------------
// Both are sequences of the kernel's own handlers (accept, recv; open,
// lseek, read, send, close) under the one Scope syscall() built: one
// crossing, classic semantics per step.

SysRet Net::handle_accept_recv(uk::Process& p, const SysArgs& a,
                               uk::BufMode m) {
  USK_TRACE_LATENCY("net", "accept_recv");
  if (a.a1 == 0 || a.a3 == 0) return sysret_err(Errno::kEFAULT);
  Kernel::FdLedger ledger(k_, p);
  const SysRet connfd = ledger.call(Sys::kAccept, {a.a0}, m);
  if (connfd < 0) return connfd;
  const SysRet r =
      k_.dispatch_nested(p, Sys::kRecv, {Kernel::iarg(connfd), a.a1, a.a2}, m);
  // The accept succeeded; hand the fd back even when the first read
  // failed (EAGAIN on a nonblocking empty connection is normal). A
  // faulted fd copy-out trumps the recv result: the caller can't learn
  // the fd, so the connection is closed again and EFAULT is what they
  // see, as when Linux's accept4 fails to copy out the peer address.
  const int fd = static_cast<int>(connfd);
  uk::CallerBuf slot(k_.boundary(), p.task, m, a.a3, sizeof(fd));
  if (Result<std::size_t> c = slot.out(&fd, sizeof(fd)); !c) {
    ledger.rollback();
    return sysret_err(c.error());
  }
  return r;
}

SysRet Net::handle_sendfile(uk::Process& p, const SysArgs& a, uk::BufMode m) {
  USK_TRACE_LATENCY("net", "sendfile");
  const std::uint64_t sockfd = a.a0;
  const std::uint64_t count = a.a3;
  // Descriptor first, path copy-in second: a bad fd must be reported
  // before any boundary copy work is charged (the uniform-EBADF rule).
  if (Result<std::shared_ptr<Socket>> rs =
          socket_of(p, static_cast<int>(sockfd));
      !rs) {
    return sysret_err(rs.error());
  }
  const SysRet fd = k_.dispatch_nested(p, Sys::kOpen, {a.a1, fs::kORdOnly}, m);
  if (fd < 0) return fd;
  const auto ufd = static_cast<std::uint64_t>(fd);

  // Pump file -> socket entirely kernel-side, one page-sized chunk at a
  // time: read and send share one kernel page in kernel-buffer mode, so
  // no byte of the payload is copied to or from the caller.
  constexpr std::size_t kChunk = 4096;
  std::vector<std::byte> page(kChunk);
  const std::uint64_t kpage = Kernel::uarg(page.data());
  std::uint64_t pos = a.a2;
  std::uint64_t total = 0;
  SysRet err = 0;
  while (total < count) {
    const std::uint64_t want = std::min<std::uint64_t>(kChunk, count - total);
    SysRet rd = k_.dispatch_nested(p, Sys::kLseek, {ufd, pos, fs::kSeekSet}, m);
    if (rd >= 0) {
      rd = k_.dispatch_nested(p, Sys::kRead, {ufd, kpage, want},
                              uk::BufMode::kKernel);
    }
    if (rd <= 0) {
      err = rd;  // 0 = EOF
      break;
    }
    const SysRet sn = k_.dispatch_nested(
        p, Sys::kSend, {sockfd, kpage, static_cast<std::uint64_t>(rd)},
        uk::BufMode::kKernel);
    if (sn < 0) {
      err = sn;
      break;
    }
    total += static_cast<std::uint64_t>(sn);
    pos += static_cast<std::uint64_t>(sn);
    if (sn < rd) break;  // nonblocking short send
  }
  k_.dispatch_nested(p, Sys::kClose, {ufd}, m);
  if (total == 0 && err < 0) return err;
  nstats_.sendfile_bytes.fetch_add(total, std::memory_order_relaxed);
  return static_cast<SysRet>(total);
}

// --- shutdown / close ------------------------------------------------------

SysRet Net::handle_shutdown(uk::Process& p, const SysArgs& a,
                            uk::BufMode /*m*/) {
  const int how = static_cast<int>(a.a1);
  Result<std::shared_ptr<Socket>> rs = socket_of(p, static_cast<int>(a.a0));
  if (!rs) return sysret_err(rs.error());
  if (how != kShutRd && how != kShutWr && how != kShutRdWr) {
    return sysret_err(Errno::kEINVAL);
  }
  Socket& s = *rs.value();
  std::shared_ptr<Socket> peer;
  {
    std::lock_guard slk(s.mu_);
    if (s.state_ != SockState::kConnected) return sysret_err(Errno::kENOTCONN);
    if (how == kShutRd || how == kShutRdWr) s.rd_shutdown_ = true;
    if (how == kShutWr || how == kShutRdWr) {
      s.tx_shutdown_ = true;
      peer = s.peer_.lock();
    }
    notify_watchers_locked(s);
    s.wq_.wake_all();
  }
  if (peer != nullptr) {
    std::lock_guard plk(peer->mu_);
    peer->rx_eof_ = true;  // our FIN: peer's recv drains then returns 0
    notify_watchers_locked(*peer);
    peer->wq_.wake_all();
  }
  return 0;
}

void Net::drop_socket(const std::shared_ptr<Socket>& s) {
  std::shared_ptr<Socket> peer;
  std::deque<std::shared_ptr<Socket>> orphans;
  {
    std::lock_guard slk(s->mu_);
    if (s->state_ == SockState::kClosed) return;
    peer = s->peer_.lock();
    orphans.swap(s->accept_q_);
    s->state_ = SockState::kClosed;
    s->rx_eof_ = true;
    notify_watchers_locked(*s);
    s->wq_.wake_all();
  }
  {
    std::lock_guard tlk(tab_mu_);
    sockets_.erase(s->id());
    for (auto it = ports_.begin(); it != ports_.end();) {
      std::shared_ptr<Socket> owner = it->second.lock();
      if (owner == nullptr || owner == s) {
        it = ports_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (peer != nullptr) {
    std::lock_guard plk(peer->mu_);
    peer->rx_eof_ = true;
    notify_watchers_locked(*peer);
    peer->wq_.wake_all();
  }
  // Connections queued on a closing listener never reach accept: reset
  // both halves so their clients see EOF/ECONNRESET rather than hanging.
  for (const std::shared_ptr<Socket>& conn : orphans) drop_socket(conn);
}

void Net::drop_epoll(const std::shared_ptr<Epoll>& ep) {
  std::lock_guard tlk(tab_mu_);
  epolls_.erase(ep->id());
}

void Net::fd_released(fs::InodeNum ino) {
  if (std::shared_ptr<Socket> s = find_socket(ino)) {
    if (s->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      drop_socket(s);
    }
    return;
  }
  if (std::shared_ptr<Epoll> ep = find_epoll(ino)) {
    if (ep->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      drop_epoll(ep);
    }
  }
}

void Net::fd_duped(fs::InodeNum ino) {
  if (std::shared_ptr<Socket> s = find_socket(ino)) {
    s->refs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (std::shared_ptr<Epoll> ep = find_epoll(ino)) {
    ep->refs_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace usk::net
