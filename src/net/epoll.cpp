// epoll_create / epoll_ctl / epoll_wait: the readiness multiplexer.
//
// Level-triggered by design: epoll_wait re-derives readiness from socket
// state on every call, so an fd whose queue still holds bytes is
// reported again on the next wait. The scan copies the watch list under
// the epoll lock, then inspects each socket under its own lock --
// honouring the socket -> epoll lock order by never touching a socket
// while the epoll lock is held. Parking is event-driven: the waiter
// takes its WaitQueue token before the scan, so any signal() that lands
// during the scan voids the park and forces a rescan; the only timed
// wait is the caller's own timeout_ms.

#include <algorithm>
#include <chrono>

#include "net/net.hpp"
#include "trace/tracepoint.hpp"

namespace usk::net {

namespace {

/// Resolve an epoll fd through the fd table.
Result<std::shared_ptr<Epoll>> epoll_of(Net& net, uk::Process& p, int epfd) {
  fs::OpenFile* f = p.fds.get(epfd);
  if (f == nullptr) return Errno::kEBADF;
  if (f->fsp != &net.sockfs()) return Errno::kEINVAL;
  std::shared_ptr<Epoll> ep = net.find_epoll(f->ino);
  if (ep == nullptr) return Errno::kEINVAL;  // a plain socket fd
  return ep;
}

}  // namespace

SysRet Net::handle_epoll_create(uk::Process& p, const SysArgs& /*a*/,
                                uk::BufMode /*m*/) {
  std::shared_ptr<Epoll> ep;
  fs::InodeNum ino = 0;
  {
    std::lock_guard tlk(tab_mu_);
    ino = next_ino_++;
    ep = std::make_shared<Epoll>(ino);
    epolls_[ino] = ep;
  }
  fs::OpenFile f;
  f.ino = ino;
  f.flags = fs::kORdWr;
  f.fsp = &sockfs_;
  f.fs_id = 0xFFFFFFFFu;
  Result<int> fd = p.fds.install(f);
  if (!fd) {
    drop_epoll(ep);
    return sysret_err(fd.error());
  }
  return fd.value();
}

SysRet Net::handle_epoll_ctl(uk::Process& p, const SysArgs& a,
                             uk::BufMode /*m*/) {
  const int epfd = static_cast<int>(a.a0);
  const int op = static_cast<int>(a.a1);
  const int fd = static_cast<int>(a.a2);
  const auto events = static_cast<std::uint32_t>(a.a3);
  Result<std::shared_ptr<Epoll>> rep = epoll_of(*this, p, epfd);
  if (!rep) return sysret_err(rep.error());
  Epoll& ep = *rep.value();
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  std::shared_ptr<Socket> s = rs.value();

  switch (op) {
    case kEpollCtlAdd: {
      {
        std::lock_guard elk(ep.mu_);
        auto it = ep.entries_.find(fd);
        // A live entry is a duplicate; an expired one is a registration
        // whose socket was closed (close removes the watch, as in real
        // epoll) that a reused fd number may take over.
        if (it != ep.entries_.end() && !it->second.sock.expired()) {
          return sysret_err(Errno::kEEXIST);
        }
        ep.entries_[fd] = Epoll::Entry{s, events};
      }
      {
        std::lock_guard slk(s->mu_);
        s->watchers_.emplace_back(rep.value(), fd);
      }
      // A parked wait must rescan: the new fd may already be ready.
      ep.signal();
      return 0;
    }
    case kEpollCtlMod: {
      {
        std::lock_guard elk(ep.mu_);
        auto it = ep.entries_.find(fd);
        if (it == ep.entries_.end()) return sysret_err(Errno::kENOENT);
        it->second.events = events;
      }
      ep.signal();  // the widened mask may match already-pending state
      return 0;
    }
    case kEpollCtlDel: {
      {
        std::lock_guard elk(ep.mu_);
        if (ep.entries_.erase(fd) == 0) return sysret_err(Errno::kENOENT);
      }
      std::lock_guard slk(s->mu_);
      std::erase_if(s->watchers_, [&](const auto& w) {
        return w.second == fd &&
               (w.first.expired() || w.first.lock() == rep.value());
      });
      return 0;
    }
    default:
      return sysret_err(Errno::kEINVAL);
  }
}

SysRet Net::handle_epoll_wait(uk::Process& p, const SysArgs& a,
                              uk::BufMode m) {
  const int epfd = static_cast<int>(a.a0);
  const int maxevents = static_cast<int>(a.a2);
  const int timeout_ms = static_cast<int>(a.a3);
  USK_TRACE_LATENCY("net", "epoll_wait");
  USK_TRACEPOINT("net", "epoll_wait", static_cast<std::uint64_t>(epfd));
  if (a.a1 == 0 || maxevents <= 0) return sysret_err(Errno::kEINVAL);
  Result<std::shared_ptr<Epoll>> rep = epoll_of(*this, p, epfd);
  if (!rep) return sysret_err(rep.error());
  Epoll& ep = *rep.value();

  using clock = std::chrono::steady_clock;
  const bool forever = timeout_ms < 0;
  const clock::time_point deadline =
      forever ? clock::time_point::max()
              : clock::now() + std::chrono::milliseconds(timeout_ms);

  std::vector<EpollEvent> out;
  for (;;) {
    // 0. Token first: a signal() from any watched socket between here
    // and the park voids the park, so readiness rising mid-scan is never
    // slept through.
    const sched::WaitQueue::Token tok = ep.wq_.prepare();

    // 1. Snapshot the watch list (epoll lock only).
    struct Cand {
      int fd;
      std::weak_ptr<Socket> sock;
      std::uint32_t events;
    };
    std::vector<Cand> cands;
    {
      std::lock_guard elk(ep.mu_);
      cands.reserve(ep.entries_.size());
      for (const auto& [fd, e] : ep.entries_) {
        cands.push_back(Cand{fd, e.sock, e.events});
      }
    }

    // 2. Check each socket under its own lock (level-triggered re-arm).
    out.clear();
    std::vector<int> dead;
    for (const Cand& c : cands) {
      charge(costs_.poll_op);
      std::shared_ptr<Socket> s = c.sock.lock();
      if (s == nullptr) {
        dead.push_back(c.fd);  // closed while registered: prune silently
        continue;
      }
      std::uint32_t mask = 0;
      {
        std::lock_guard slk(s->mu_);
        mask = s->readiness_locked() & (c.events | kEpollHup);
      }
      if (mask != 0) out.push_back(EpollEvent{c.fd, mask});
      if (static_cast<int>(out.size()) >= maxevents) break;
    }

    // 3. Prune entries whose socket is gone.
    if (!dead.empty()) {
      std::lock_guard elk(ep.mu_);
      for (int fd : dead) ep.entries_.erase(fd);
    }

    if (!out.empty()) break;
    if (!forever && (timeout_ms == 0 || clock::now() >= deadline)) break;

    // 4. Park until a socket signals or the caller's deadline passes
    // (the watchdog runs at the park, as at every schedule-out). The
    // caller's own timeout ending the park re-scans and returns 0 events
    // above; a request deadline ending it is ETIMEDOUT.
    Result<uk::Kernel::Parked> w =
        k_.park(ep.wq_, tok, forever ? nullptr : &deadline);
    if (!w) return sysret_err(w.error());
  }

  std::size_t n = std::min(out.size(), static_cast<std::size_t>(maxevents));
  if (n > 0) {
    // Readiness is level-triggered here, so a faulted copy-out loses no
    // events: the next wait re-reports them.
    const std::size_t bytes = n * sizeof(EpollEvent);
    uk::CallerBuf buf(k_.boundary(), p.task, m, a.a1, bytes);
    if (Result<std::size_t> c = buf.out(out.data(), bytes); !c) {
      return sysret_err(c.error());
    }
  }
  return static_cast<SysRet>(n);
}

}  // namespace usk::net
