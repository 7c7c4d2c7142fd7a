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
#include <array>
#include <chrono>
#include <cstring>
#include <iterator>
#include <vector>

#include "net/net.hpp"
#include "trace/tracepoint.hpp"

namespace usk::net {

namespace {

/// Watches staged in place by one epoll_wait scan.
constexpr std::size_t kInline = 64;

/// Up to N elements on the stack; the (N+1)th push moves them all to the
/// heap. clear() keeps the inline slots' old values until overwritten.
template <typename T, std::size_t N>
class InlineVec {
 public:
  void push_back(T v) {
    if (size_ < N) {
      inline_[size_++] = std::move(v);
      return;
    }
    if (size_ == N) {
      heap_.assign(std::make_move_iterator(inline_.begin()),
                   std::make_move_iterator(inline_.end()));
    }
    heap_.push_back(std::move(v));
    ++size_;
  }
  void clear() {
    size_ = 0;
    heap_.clear();
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  T* data() { return size_ <= N ? inline_.data() : heap_.data(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
  std::size_t size_ = 0;
};

}  // namespace

SysRet Net::handle_epoll_create(uk::Process& p, const SysArgs& /*a*/,
                                uk::BufMode /*m*/) {
  Result<int> fd = epolls_.install(p.fds, epolls_.add()->id());
  if (!fd) return sysret_err(fd.error());
  return fd.value();
}

SysRet Net::handle_epoll_ctl(uk::Process& p, const SysArgs& a,
                             uk::BufMode /*m*/) {
  const int epfd = static_cast<int>(a.a0);
  const int op = static_cast<int>(a.a1);
  const int fd = static_cast<int>(a.a2);
  const auto events = static_cast<std::uint32_t>(a.a3);
  Result<std::shared_ptr<Epoll>> rep = epolls_.of(p.fds, epfd);
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
  Result<std::shared_ptr<Epoll>> rep = epolls_.of(p.fds, epfd);
  if (!rep) return sysret_err(rep.error());
  Epoll& ep = *rep.value();

  using clock = std::chrono::steady_clock;
  const bool forever = timeout_ms < 0;
  const clock::time_point deadline =
      forever ? clock::time_point::max()
              : clock::now() + std::chrono::milliseconds(timeout_ms);

  // Staged on this stack frame: a wait over up to kInline watches never
  // enters the host allocator.
  struct Cand {
    int fd;
    std::weak_ptr<Socket> sock;
    std::uint32_t events;
  };
  InlineVec<Cand, kInline> cands;
  for (;;) {
    // 0. Token first: a signal() from any watched socket between here
    // and the park voids the park, so readiness rising mid-scan is never
    // slept through.
    const sched::WaitQueue::Token tok = ep.wq_.prepare();

    // 1. Snapshot the watch list (epoll lock only).
    cands.clear();
    {
      std::lock_guard elk(ep.mu_);
      for (const auto& [fd, e] : ep.entries_) {
        cands.push_back(Cand{fd, e.sock, e.events});
      }
    }

    // 2. Check each socket under its own lock (level-triggered re-arm),
    // writing each ready event straight into the copy-out buffer (the
    // caller's own buffer for a kKernel caller, else CallerBuf's bounce).
    const std::size_t cap =
        std::min(cands.size(), static_cast<std::size_t>(maxevents));
    uk::CallerBuf buf(k_.boundary(), p.task, m, a.a1, cap * sizeof(EpollEvent));
    std::size_t n = 0;
    bool dead = false;
    for (const Cand& c : cands) {
      if (n == cap) break;
      charge(costs_.poll_op);
      std::shared_ptr<Socket> s = c.sock.lock();
      if (s == nullptr) {
        dead = true;  // closed while registered: prune silently
        continue;
      }
      std::uint32_t mask = 0;
      {
        std::lock_guard slk(s->mu_);
        mask = s->readiness_locked() & (c.events | kEpollHup);
      }
      if (mask != 0) {
        const EpollEvent ev{c.fd, mask};
        std::memcpy(buf.data() + n++ * sizeof ev, &ev, sizeof ev);
      }
    }

    // 3. Prune entries whose socket is gone. A live registration that
    // took over a dead entry's fd since the snapshot is kept.
    if (dead) {
      std::lock_guard elk(ep.mu_);
      std::erase_if(ep.entries_,
                    [](const auto& kv) { return kv.second.sock.expired(); });
    }

    if (n > 0) {
      // Readiness is level-triggered here, so a faulted copy-out loses
      // no events: the next wait re-reports them.
      if (Result<std::size_t> c = buf.out(buf.data(), n * sizeof(EpollEvent));
          !c) {
        return sysret_err(c.error());
      }
      return static_cast<SysRet>(n);
    }
    if (!forever && (timeout_ms == 0 || clock::now() >= deadline)) return 0;

    // 4. Park until a socket signals or the caller's deadline passes
    // (the watchdog runs at the park, as at every schedule-out). The
    // caller's own timeout ending the park re-scans and returns 0 events
    // above; a request deadline ending it is ETIMEDOUT.
    Result<uk::Kernel::Parked> w =
        k_.park(ep.wq_, tok, forever ? nullptr : &deadline);
    if (!w) return sysret_err(w.error());
  }
}

}  // namespace usk::net
