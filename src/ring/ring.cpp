// The kernel half of kring: ring lifecycle, the submission engine, and
// the quarantine fallback. See ring.hpp for the ABI contract.

#include "ring/ring.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "sup/supervisor.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::ring {

namespace {

/// Sentinel fs_id for ring descriptors (the SocketFs convention: rings
/// take no part in path walks or mount bookkeeping).
constexpr std::uint32_t kRingFsId = 0xFFFFFFFEu;

// Modelled engine work, in kernel units.
constexpr std::uint64_t kSetupUnits = 600;        ///< ring allocation
constexpr std::uint64_t kSetupPerKib = 8;         ///< arena zeroing
constexpr std::uint64_t kSqeDispatchUnits = 24;   ///< SQE fetch + validate
constexpr std::uint64_t kSqeRevalidateUnits = 64; ///< transient corrupt redo
constexpr std::uint64_t kCqeRetryUnits = 32;      ///< transient drop repost

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

RingStats& RingStats::operator+=(const RingStats& o) {
  enters += o.enters;
  enters_fallback += o.enters_fallback;
  sqes += o.sqes;
  chains += o.chains;
  chains_failed += o.chains_failed;
  chains_malformed += o.chains_malformed;
  cqes_posted += o.cqes_posted;
  cqes_canceled += o.cqes_canceled;
  fds_rolled_back += o.fds_rolled_back;
  cq_backpressure += o.cq_backpressure;
  sqes_discarded += o.sqes_discarded;
  sqe_corrupt_hard += o.sqe_corrupt_hard;
  sqe_corrupt_transient += o.sqe_corrupt_transient;
  cqe_drop_hard += o.cqe_drop_hard;
  cqe_drop_transient += o.cqe_drop_transient;
  return *this;
}

// --- Ring -------------------------------------------------------------------

bool Ring::user_prepare(const Sqe& e) {
  if (closed()) return false;
  if (!sq_.push(e)) return false;  // SQ full: counted in sq_.dropped()
  // Doorbell: wake a drainer parked in ring_enter. The push above
  // happened before the wake, and the sleeper took its token before
  // re-reading the SQ, so the handshake is lossless.
  wq_.wake_all();
  return true;
}

RingStats Ring::stats() const {
  RingStats s;
  s.enters = n_.enters.load(std::memory_order_relaxed);
  s.enters_fallback = n_.enters_fallback.load(std::memory_order_relaxed);
  s.sqes = n_.sqes.load(std::memory_order_relaxed);
  s.chains = n_.chains.load(std::memory_order_relaxed);
  s.chains_failed = n_.chains_failed.load(std::memory_order_relaxed);
  s.chains_malformed = n_.chains_malformed.load(std::memory_order_relaxed);
  s.cqes_posted = n_.cqes_posted.load(std::memory_order_relaxed);
  s.cqes_canceled = n_.cqes_canceled.load(std::memory_order_relaxed);
  s.fds_rolled_back = n_.fds_rolled_back.load(std::memory_order_relaxed);
  s.cq_backpressure = n_.cq_backpressure.load(std::memory_order_relaxed);
  s.sqes_discarded = n_.sqes_discarded.load(std::memory_order_relaxed);
  s.sqe_corrupt_hard = n_.sqe_corrupt_hard.load(std::memory_order_relaxed);
  s.sqe_corrupt_transient =
      n_.sqe_corrupt_transient.load(std::memory_order_relaxed);
  s.cqe_drop_hard = n_.cqe_drop_hard.load(std::memory_order_relaxed);
  s.cqe_drop_transient =
      n_.cqe_drop_transient.load(std::memory_order_relaxed);
  return s;
}

// --- RingFs -----------------------------------------------------------------

Result<void> RingFs::getattr(fs::InodeNum ino, fs::StatBuf* st) {
  std::shared_ptr<Ring> r = dev_.find_ring(ino);
  if (r == nullptr) return Errno::kEINVAL;
  *st = fs::StatBuf{};
  st->ino = ino;
  st->type = fs::FileType::kRegular;
  st->mode = 0600;
  st->size = r->cq_size();  // reapable completions, like FIONREAD
  return Errno::kOk;
}

void RingFs::release_file(fs::InodeNum ino) { dev_.fd_released(ino); }

void RingFs::dup_file(fs::InodeNum ino) { dev_.fd_duped(ino); }

// --- RingDev lifecycle ------------------------------------------------------

RingDev::RingDev(uk::Kernel& k) : k_(k), ringfs_(*this) {
  k_.register_syscall<&RingDev::handle_setup>(uk::Sys::kRingSetup, this);
  k_.register_syscall<&RingDev::handle_enter>(uk::Sys::kRingEnter, this);
}

RingDev::~RingDev() {
  k_.unregister_syscall(uk::Sys::kRingSetup);
  k_.unregister_syscall(uk::Sys::kRingEnter);
}

SysRet RingDev::handle_setup(uk::Process& p, const uk::Kernel::SysArgs& a,
                             uk::BufMode /*m*/) {
  return sys_ring_setup(p, static_cast<std::uint32_t>(a.a0),
                        static_cast<std::uint32_t>(a.a1));
}

SysRet RingDev::handle_enter(uk::Process& p, const uk::Kernel::SysArgs& a,
                             uk::BufMode /*m*/) {
  return sys_ring_enter(p, static_cast<int>(a.a0),
                        static_cast<std::uint32_t>(a.a1),
                        static_cast<std::uint32_t>(a.a2),
                        static_cast<int>(a.a3));
}

void RingDev::charge(std::uint64_t units) {
  k_.engine().alu(units);
  if (sched::Task* t = k_.scheduler().current()) t->charge_kernel(units);
}

Result<std::shared_ptr<Ring>> RingDev::ring_of(uk::Process& p, int fd) {
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  if (f->fsp != &ringfs_) return Errno::kEBADF;  // not a ring fd
  std::shared_ptr<Ring> r = find_ring(f->ino);
  if (r == nullptr || r->closed()) return Errno::kEBADF;
  return r;
}

std::shared_ptr<Ring> RingDev::find_ring(fs::InodeNum ino) const {
  std::lock_guard lk(tab_mu_);
  auto it = rings_.find(ino);
  return it == rings_.end() ? nullptr : it->second;
}

std::size_t RingDev::live_rings() const {
  std::lock_guard lk(tab_mu_);
  return rings_.size();
}

void RingDev::fd_duped(fs::InodeNum ino) {
  if (std::shared_ptr<Ring> r = find_ring(ino)) {
    r->refs_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RingDev::fd_released(fs::InodeNum ino) {
  std::shared_ptr<Ring> r = find_ring(ino);
  if (r == nullptr) return;
  if (r->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) close_ring(r);
}

void RingDev::close_ring(const std::shared_ptr<Ring>& r) {
  r->closed_.store(true, std::memory_order_release);
  {
    // Exclusive with a drain in progress: once we hold drain_mu_ no new
    // chain starts, and the closed flag stops the next one.
    std::lock_guard dlk(r->drain_mu_);
    // Close-with-inflight-ops: every queued-but-undrained SQE completes
    // with -ECANCELED so a reaper (the mapping outlives the fd, like a
    // real mmap) sees a completion for everything it submitted. CQ
    // space can run out here; the overflow is counted, not blocked on.
    Sqe e;
    while (r->sq_.pop(&e)) {
      if (r->cq_.push(Cqe{e.user_data, sysret_err(Errno::kECANCELED)})) {
        r->n_.cqes_posted.fetch_add(1, std::memory_order_relaxed);
        r->n_.cqes_canceled.fetch_add(1, std::memory_order_relaxed);
      }
      r->n_.sqes_discarded.fetch_add(1, std::memory_order_relaxed);
    }
  }
  r->wq_.wake_all();  // unblock parked enters: they see closed()
  std::lock_guard lk(tab_mu_);
  retired_ += r->stats();
  rings_.erase(r->ino());
  USK_TRACEPOINT("ring", "close", static_cast<std::uint64_t>(r->ino()));
}

// --- setup ------------------------------------------------------------------

SysRet RingDev::sys_ring_setup(uk::Process& p, std::uint32_t entries,
                               std::uint32_t data_bytes) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kRingSetup);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACEPOINT("ring", "setup", entries, data_bytes);
  if (entries == 0 || entries > kMaxSqEntries || data_bytes > kMaxDataBytes) {
    return scope.fail(Errno::kEINVAL);
  }
  const std::size_t sq_entries = round_pow2(entries);
  // Modelled allocation: ring headers + arena zeroing.
  charge(kSetupUnits + kSetupPerKib * ((data_bytes + 1023) / 1024));
  std::shared_ptr<Ring> r;
  {
    std::lock_guard lk(tab_mu_);
    r = std::make_shared<Ring>(next_ino_++, p.task.pid(), sq_entries,
                               data_bytes);
    rings_[r->ino()] = r;
  }
  fs::OpenFile f;
  f.ino = r->ino();
  f.flags = fs::kORdWr;
  f.fsp = &ringfs_;
  f.fs_id = kRingFsId;
  Result<int> fd = p.fds.install(f);
  if (!fd) {
    std::lock_guard lk(tab_mu_);
    rings_.erase(r->ino());
    return scope.fail(fd.error());
  }
  return scope.done(fd.value());
}

Result<std::shared_ptr<Ring>> RingDev::user_map(uk::Process& p, int ringfd) {
  // The mmap analogue: no crossing, no copy -- the caller gets direct
  // access to the shared queues, which is the whole point of rings.
  return ring_of(p, ringfd);
}

Result<void> RingDev::supervise(uk::Process& p, int ringfd,
                                sup::Supervisor& s, int ext_id) {
  Result<std::shared_ptr<Ring>> r = ring_of(p, ringfd);
  if (!r) return r.error();
  r.value()->ext_.store(ext_id, std::memory_order_release);
  r.value()->sup_.store(&s, std::memory_order_release);
  return Errno::kOk;
}

// --- the submission engine --------------------------------------------------

SysRet RingDev::exec_sqe(Ring& r, const Sqe& e, bool classic,
                         uk::Kernel::FdLedger& ledger, std::size_t tag) {
  if (e.nr == uk::Sys{}) return 0;  // no-op
  const uk::SysSig& sig = uk::sys_sig(e.nr);
  // Only nestable calls: an SQE can never re-enter a ring.
  if (!sig.nestable) return sysret_err(Errno::kENOSYS);
  // Registers by signature. A buffer names its arena window by pointer,
  // nullptr when it escapes the arena, and a path must be NUL-terminated
  // inside the arena (an unterminated string would walk the engine off
  // it): the handler then answers EFAULT in its own check order
  // (EBADF before EFAULT, regression-tested).
  uk::SysArgs a = e.args;
  for (std::size_t i = 0; i < sig.nargs; ++i) {
    std::uint64_t& reg = a.at(i);
    switch (sig.args[i].type) {
      case uk::ArgType::kFd:
        if (reg == kFdChain) {
          if (ledger.latest() < 0) return sysret_err(Errno::kEBADF);
          reg = static_cast<std::uint64_t>(ledger.latest());
        }
        break;
      case uk::ArgType::kPath: {
        const std::size_t room =
            reg < r.data_bytes() ? r.data_bytes() - reg : 0;
        const std::byte* path = r.user_data(reg, room);
        reg = room > 0 && std::memchr(path, 0, room) != nullptr
                  ? uk::Kernel::uarg(path)
                  : 0;
        break;
      }
      case uk::ArgType::kIn:
      case uk::ArgType::kOut:
      case uk::ArgType::kInOut:
        reg = uk::Kernel::uarg(r.user_data(reg, sig.buf_bytes(i, e.args)));
        break;
      case uk::ArgType::kNone:
      case uk::ArgType::kImm:
        break;
    }
  }
  // The one vehicle branch: a full syscall per op (quarantine fallback)
  // or the same handler under the enclosing ring_enter's crossing.
  return classic ? ledger.syscall(e.nr, a, tag)
                 : ledger.call(e.nr, a, uk::BufMode::kUser, tag);
}

void RingDev::exec_chain(uk::Process& p, Ring& r,
                         const std::vector<Sqe>& chain, bool classic,
                         Errno* violation, std::vector<Cqe>& out) {
  // One span per chain (the ring's request unit), a child of whatever
  // span submitted the enter (chains drain on the submitting thread).
  // Classic decomposition keeps the same parent, so a quarantined
  // ring's fallback work stays inside the original request tree.
  sup::InvocationGuard* g = sup::InvocationGuard::current();
  trace::SpanScope span(classic ? "ring.chain.classic" : "ring.chain",
                        classic ? trace::SpanVehicle::kFallback
                                : trace::SpanVehicle::kRing,
                        g != nullptr ? g->ext() : -1);
  const std::uint64_t kunits0 = p.task.times().kernel;
  uk::Kernel::FdLedger ledger(k_, p);  ///< its latest() is kFdChain
  bool failed = false;
  out.reserve(out.size() + chain.size());
  for (const Sqe& e : chain) {
    if (failed) {
      out.push_back(Cqe{e.user_data, sysret_err(Errno::kECANCELED)});
      r.n_.cqes_canceled.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // kdl: cancel-on-deadline between SQEs. Failing THIS SQE with
    // ETIMEDOUT/ECANCELED reuses the cancel cascade and fd rollback
    // below, so an expired or canceled chain unwinds through exactly
    // the machinery any mid-chain error already exercises.
    if (Errno de = k_.dl().fail_fast(&p.task, dl::Kdl::Site::kRing);
        de != Errno::kOk) {
      out.push_back(Cqe{e.user_data, sysret_err(de)});
      failed = true;
      continue;
    }
    charge(kSqeDispatchUnits);
    SysRet res = 0;
    bool corrupted = false;
    if (!classic) {
      // The shared-memory TOCTOU window: the user can scribble on an
      // SQE between validation and dispatch. The fallback path is
      // immune by construction -- it re-copies and re-validates each
      // op through the full gateway one at a time.
      if (auto f = USK_FAIL_POINT(fault::Site::kRingSqeCorrupt); f.fail) {
        res = sysret_err(f.err);
        corrupted = true;
        r.n_.sqe_corrupt_hard.fetch_add(1, std::memory_order_relaxed);
        if (*violation == Errno::kOk) *violation = f.err;
      } else if (f.transient) {
        r.n_.sqe_corrupt_transient.fetch_add(1, std::memory_order_relaxed);
        charge(kSqeRevalidateUnits);  // re-read + re-validate the SQE
      }
    }
    if (!corrupted) {
      res = exec_sqe(r, e, classic, ledger, out.size());
    }
    if (res < 0) {
      span.set_status(res);
      failed = true;
    }
    out.push_back(Cqe{e.user_data, res});
  }
  if (failed) {
    r.n_.chains_failed.fetch_add(1, std::memory_order_relaxed);
    USK_TRACEPOINT("ring", "chain_cancel", chain.size());
    // fd rollback: a failed chain never hands out descriptors. The
    // ledger closes whatever it opened; those CQEs are rewritten to
    // -ECANCELED so the user cannot key off a stale fd number.
    for (std::size_t at : ledger.rollback(classic)) {
      r.n_.fds_rolled_back.fetch_add(1, std::memory_order_relaxed);
      out[at].res = sysret_err(Errno::kECANCELED);
      r.n_.cqes_canceled.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!classic) {
    // Nested dispatch opens no syscall Scope, so the chain's kernel
    // work is charged explicitly; classic chains run full syscalls
    // whose epilogues attribute to this span on their own.
    span.add_units(p.task.times().kernel - kunits0);
  }
}

std::size_t RingDev::post_cqes(Ring& r, std::vector<Cqe>& cqes, bool classic,
                               Errno* violation) {
  std::size_t posted = 0;
  for (const Cqe& c : cqes) {
    if (!classic) {
      if (auto f = USK_FAIL_POINT(fault::Site::kRingCqeDrop); f.fail) {
        // The completion is lost: the op executed, its result vanished.
        // (The shared-memory effects -- bytes in the arena -- survive,
        // which is what a careful caller recovers from.)
        r.n_.cqe_drop_hard.fetch_add(1, std::memory_order_relaxed);
        if (*violation == Errno::kOk) *violation = f.err;
        USK_TRACEPOINT("ring", "cqe_drop", c.user_data);
        continue;
      } else if (f.transient) {
        r.n_.cqe_drop_transient.fetch_add(1, std::memory_order_relaxed);
        charge(kCqeRetryUnits);  // repost after a torn write
      }
    }
    if (r.cq_.push(c)) {
      ++posted;
      r.n_.cqes_posted.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Space was reserved before the chain ran; racing reapers only
      // grow free space, so this is unreachable -- counted defensively.
      r.n_.cqe_drop_hard.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (posted > 0) r.wq_.wake_all();
  return posted;
}

std::size_t RingDev::drain(uk::Process& p, Ring& r, std::size_t budget,
                           bool classic, sup::InvocationGuard* guard,
                           Errno* violation, std::size_t* posted,
                           bool* stop) {
  std::lock_guard dlk(r.drain_mu_);
  std::size_t consumed = 0;
  std::vector<Sqe> chain;
  std::vector<Cqe> cqes;
  while (consumed < budget) {
    if (r.closed()) {
      *stop = true;
      break;
    }
    // Reserve CQ space for a worst-case chain BEFORE popping it: the
    // overflow policy is backpressure, never silent loss. Only the
    // drainer pushes CQEs, so free space can only grow under us.
    if (r.cq_free() < r.max_chain()) {
      r.n_.cq_backpressure.fetch_add(1, std::memory_order_relaxed);
      *stop = true;
      break;
    }
    chain.clear();
    cqes.clear();
    Sqe e;
    if (!r.sq_.pop(&e)) break;  // SQ dry
    chain.push_back(e);
    bool malformed = false;
    while ((chain.back().flags & kSqeLink) != 0) {
      if (chain.size() >= r.max_chain() || !r.sq_.pop(&e)) {
        // Overlong chain or dangling link (a linked SQE with nothing
        // behind it): the whole chain is malformed.
        malformed = true;
        break;
      }
      chain.push_back(e);
    }
    consumed += chain.size();
    r.n_.sqes.fetch_add(chain.size(), std::memory_order_relaxed);
    r.n_.chains.fetch_add(1, std::memory_order_relaxed);
    if (malformed) {
      r.n_.chains_malformed.fetch_add(1, std::memory_order_relaxed);
      for (const Sqe& m : chain) {
        cqes.push_back(Cqe{m.user_data, sysret_err(Errno::kEINVAL)});
      }
      *posted += post_cqes(r, cqes, classic, violation);
      continue;
    }
    if (guard != nullptr && !guard->charge_fuel(chain.size())) {
      // Quota trip: this chain never runs; its SQEs complete with
      // EDQUOT and draining stops (the guard narrows no further work).
      for (const Sqe& m : chain) {
        cqes.push_back(
            Cqe{m.user_data, sysret_err(sup::InvocationGuard::quota_errno())});
      }
      *posted += post_cqes(r, cqes, classic, violation);
      if (*violation == Errno::kOk) {
        *violation = sup::InvocationGuard::quota_errno();
      }
      *stop = true;
      break;
    }
    exec_chain(p, r, chain, classic, violation, cqes);
    *posted += post_cqes(r, cqes, classic, violation);
    // Preemption point between chains: the watchdog sees a runaway
    // drain exactly like any other long kernel visit.
    if (!k_.scheduler().preempt_point()) {
      if (*violation == Errno::kOk) *violation = Errno::kEKILLED;
      *stop = true;
      break;
    }
  }
  USK_TRACEPOINT("ring", "drain", consumed, *posted);
  return consumed;
}

SysRet RingDev::do_enter(uk::Process& p, Ring& r, std::uint32_t to_submit,
                         std::uint32_t min_complete, int timeout_ms,
                         bool classic, sup::InvocationGuard* guard,
                         Errno* violation) {
  const std::size_t budget =
      to_submit == kDrainAll ? std::numeric_limits<std::size_t>::max()
                             : to_submit;
  const bool bounded_wait = timeout_ms > 0;
  const sched::WaitQueue::Deadline deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(bounded_wait ? timeout_ms : 0);
  std::size_t consumed = 0;
  std::size_t posted = 0;
  for (;;) {
    // Token before the drain: a doorbell, completion post, or close that
    // lands anywhere past this line voids the park below.
    const sched::WaitQueue::Token tok = r.wq_.prepare();
    bool stop = false;
    consumed += drain(p, r, budget - consumed, classic, guard, violation,
                      &posted, &stop);
    if (stop && *violation != Errno::kOk) break;
    if (min_complete == 0 || r.cq_size() >= min_complete) break;
    if (r.closed()) break;
    if (timeout_ms == 0) break;
    if (bounded_wait && std::chrono::steady_clock::now() >= deadline) break;
    std::uint64_t sq_ready = r.sq_.pushed() - r.sq_.popped();
    if (sq_ready > 0 && consumed < budget) continue;  // more to drain
    // Event-driven park: the task schedules out (the watchdog runs, as
    // at every schedule-out) and sleeps until a doorbell, completion, or
    // close wakes the ring's WaitQueue -- or the caller's own timeout_ms
    // deadline passes. Blocking socket ops inside the drain park on their
    // sockets' WaitQueues wired to peer readiness; no polling anywhere on
    // this path.
    // The request deadline tightens the wait bound. Work already posted
    // always beats the error (like a partial recv); a kill, cancel or
    // request expiry with nothing posted surfaces EINTR/ECANCELED/
    // ETIMEDOUT.
    Result<uk::Kernel::Parked> w =
        k_.park(r.wq_, tok, bounded_wait ? &deadline : nullptr);
    if (!w) {
      return posted > 0 ? static_cast<SysRet>(posted)
                        : sysret_err(w.error());
    }
  }
  return static_cast<SysRet>(posted);
}

SysRet RingDev::sys_ring_enter(uk::Process& p, int ringfd,
                               std::uint32_t to_submit,
                               std::uint32_t min_complete, int timeout_ms) {
  Result<std::shared_ptr<Ring>> rr = ring_of(p, ringfd);
  const Errno bad = !rr ? rr.error()
                    : min_complete > rr.value()->cq_capacity() ? Errno::kEINVAL
                                                               : Errno::kOk;
  if (bad != Errno::kOk) {
    uk::Kernel::Scope scope(k_, p, uk::Sys::kRingEnter);
    if (SysRet g = scope.gate(); g != 0) return g;
    return scope.fail(bad);
  }
  Ring& r = *rr.value();

  sup::Supervisor* sup = r.sup_.load(std::memory_order_acquire);
  const int ext = r.ext_.load(std::memory_order_acquire);

  // Unsupervised: the plain kernel path, one crossing for the batch.
  if (sup == nullptr) {
    Errno viol = Errno::kOk;
    r.n_.enters.fetch_add(1, std::memory_order_relaxed);
    uk::Kernel::Scope scope(k_, p, uk::Sys::kRingEnter);
    if (SysRet g = scope.gate(); g != 0) return g;
    USK_TRACE_LATENCY("ring", "enter");
    USK_TRACEPOINT("ring", "enter", to_submit, min_complete);
    return scope.done(do_enter(p, r, to_submit, min_complete, timeout_ms,
                               /*classic=*/false, nullptr, &viol));
  }

  const sup::Route route = sup->route(ext);
  if (route != sup::Route::kFallback) {
    SysRet vres = 0;
    SysRet ret = 0;
    Errno viol = Errno::kOk;
    std::size_t kernel_posted = 0;
    {
      sup::InvocationGuard g(*sup, ext, &p.task, route, &vres);
      // The drain stages up to one chain of SQEs kernel-side; charge
      // that staging against the kmalloc quota before any side effect.
      if (!g.charge_kmalloc(r.max_chain() * sizeof(Sqe))) {
        vres = sysret_err(sup::InvocationGuard::quota_errno());
        ret = vres;
      } else {
        r.n_.enters.fetch_add(1, std::memory_order_relaxed);
        uk::Kernel::Scope scope(k_, p, uk::Sys::kRingEnter);
        if (SysRet gr = scope.gate(); gr != 0) return gr;
        USK_TRACE_LATENCY("ring", "enter");
        USK_TRACEPOINT("ring", "enter", to_submit, min_complete);
        ret = scope.done(do_enter(p, r, to_submit, min_complete, timeout_ms,
                                  /*classic=*/false, &g, &viol));
        kernel_posted = ret > 0 ? static_cast<std::size_t>(ret) : 0;
        // The guard judges the DRAIN, not the per-op results: data-plane
        // errnos live in the CQEs; a corrupt SQE, a dropped completion
        // or a quota trip is the extension misbehaving.
        vres = viol != Errno::kOk ? sysret_err(viol) : (ret < 0 ? ret : 0);
      }
    }
    // Mirror the other vehicles' contract: if the kernel path produced
    // nothing and misbehaved, decompose the still-queued SQEs below;
    // anything already posted must not be re-executed.
    if (kernel_posted > 0 || (viol == Errno::kOk && !sysret_is_err(ret))) {
      return ret;
    }
  }

  // Quarantined (or zero-yield misbehaving) path: classic syscall-at-a-
  // time decomposition. Same chains, same semantics, one crossing per
  // op -- each nested Scope feeds the gateway so the breaker keeps
  // observing the extension while it serves its backoff.
  r.n_.enters_fallback.fetch_add(1, std::memory_order_relaxed);
  USK_TRACEPOINT("ring", "fallback_enter", to_submit);
  SysRet vres = 0;
  SysRet ret = 0;
  {
    sup::InvocationGuard g(*sup, ext, &p.task, sup::Route::kFallback, &vres);
    if (auto f = USK_FAIL_POINT(fault::Site::kSupFallback); f.fail) {
      vres = sysret_err(f.err);
      return sysret_err(f.err);
    } else if (f.transient) {
      k_.engine().alu(200);  // simulated user-space retry
    }
    Errno viol = Errno::kOk;
    ret = do_enter(p, r, to_submit, min_complete, timeout_ms,
                   /*classic=*/true, nullptr, &viol);
    vres = ret < 0 ? ret : 0;
  }
  return ret;
}

}  // namespace usk::ring
