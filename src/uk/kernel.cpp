#include "uk/kernel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "base/current.hpp"
#include "base/cycles.hpp"
#include "fs/procfs.hpp"
#include "trace/tracepoint.hpp"
#include "uk/kproc.hpp"

namespace usk::uk {

Kernel::Kernel(fs::FileSystem& rootfs, KernelConfig cfg)
    : phys_(cfg.phys_frames),
      kernel_as_(phys_, "kernel"),
      kmalloc_(phys_, cfg.kmalloc_per_cpu_cache),
      vmalloc_(kernel_as_, /*base=*/0xFFFF800000000000ull, /*pages=*/1 << 15),
      sched_(/*quantum=*/32),
      boundary_(engine_, cfg.boundary),
      audit_(*this),
      dl_(kfail_),
      vfs_(rootfs, cfg.dcache_capacity, cfg.dcache_shards) {
  register_syscall<&Kernel::do_open>(Sys::kOpen, this);
  register_syscall<&Kernel::do_close>(Sys::kClose, this);
  register_syscall<&Kernel::do_dup>(Sys::kDup, this);
  register_syscall<&Kernel::do_read>(Sys::kRead, this);
  register_syscall<&Kernel::do_write>(Sys::kWrite, this);
  register_syscall<&Kernel::do_lseek>(Sys::kLseek, this);
  register_syscall<&Kernel::do_stat>(Sys::kStat, this);
  register_syscall<&Kernel::do_fstat>(Sys::kFstat, this);
  register_syscall<&Kernel::do_readdir>(Sys::kReaddir, this);
  register_syscall<&Kernel::do_unlink>(Sys::kUnlink, this);
  register_syscall<&Kernel::do_mkdir>(Sys::kMkdir, this);
  register_syscall<&Kernel::do_rmdir>(Sys::kRmdir, this);
  register_syscall<&Kernel::do_rename>(Sys::kRename, this);
  register_syscall<&Kernel::do_truncate>(Sys::kTruncate, this);
  register_syscall<&Kernel::do_getpid>(Sys::kGetpid, this);
  register_syscall<&Kernel::do_sync>(Sys::kSync, this);
  register_syscall<&Kernel::do_fsync>(Sys::kFsync, this);
  register_syscall<&Kernel::do_fdatasync>(Sys::kFdatasync, this);
  register_syscall<&Kernel::do_link>(Sys::kLink, this);
  register_syscall<&Kernel::do_chmod>(Sys::kChmod, this);
  register_syscall<&Kernel::do_readdirplus>(Sys::kReaddirPlus, this);
  register_syscall<&Kernel::do_open_read_close>(Sys::kOpenReadClose, this);
  register_syscall<&Kernel::do_open_write_close>(Sys::kOpenWriteClose, this);
  register_syscall<&Kernel::do_open_fstat>(Sys::kOpenFstat, this);
}

Kernel::~Kernel() = default;

// --- subscribers ------------------------------------------------------------
// A subscriber owns one slot; armed_ has a bit per live slot. publish()
// counts itself into a slot's `active` BEFORE loading its pointer, and
// unsubscribe() clears the pointer BEFORE waiting for `active` to drain
// (both seq_cst): a dispatcher either sees the cleared slot or is waited
// for, so a subscriber is never called after unsubscribe returns.

void Audit::enable() { k_.subscribe(*this); }
void Audit::disable() { k_.unsubscribe(*this); }

void Kernel::subscribe(SyscallSubscriber& s) {
  std::lock_guard lk(mu_);
  for (const SubSlot& slot : subs_) {
    if (slot.sub.load(std::memory_order_relaxed) == &s) return;
  }
  // Under mu_, armed_ holds exactly the taken slots.
  const auto i = static_cast<std::size_t>(std::countr_one(armed_.load()));
  if (i >= kMaxSubscribers) throw std::length_error("syscall subscribers");
  subs_[i].sub.store(&s);
  armed_.fetch_or(1u << i);
}

void Kernel::unsubscribe(SyscallSubscriber& s) {
  std::lock_guard lk(mu_);
  for (std::size_t i = 0; i < kMaxSubscribers; ++i) {
    if (subs_[i].sub.load(std::memory_order_relaxed) != &s) continue;
    armed_.fetch_and(~(1u << i));
    subs_[i].sub.store(nullptr);
    while (subs_[i].active.load() != 0) std::this_thread::yield();
  }
}

void Kernel::publish(const SyscallRecord& r) {
  for (std::uint32_t m = armed_.load(std::memory_order_relaxed); m != 0;
       m &= m - 1) {
    SubSlot& slot = subs_[static_cast<std::size_t>(std::countr_zero(m))];
    slot.active.fetch_add(1);
    if (SyscallSubscriber* s = slot.sub.load()) s->on_syscall(r);
    slot.active.fetch_sub(1, std::memory_order_release);
  }
}

fs::ProcFs& Kernel::mount_procfs() {
  std::lock_guard lk(mu_);
  if (!procfs_) {
    procfs_ = std::make_unique<fs::ProcFs>();
    register_kernel_proc(*this, *procfs_);
    // EEXIST is fine: the root filesystem may already have a /proc dir.
    vfs_.mkdir("/proc", 0555);
    vfs_.mount("/proc", *procfs_);
  }
  return *procfs_;
}

Process& Kernel::spawn(std::string name) {
  sched::Task& t = sched_.spawn(std::move(name));
  std::lock_guard lk(mu_);
  // Round-robin affinity: pooled dispatchers enqueue onto the task's home
  // runqueue; direct dispatch ignores it (enter() runs wherever called).
  sched_.bind(t, procs_.size() % sched_.cpu_count());
  procs_.push_back(std::make_unique<Process>(t));
  return *procs_.back();
}

// --- Scope ------------------------------------------------------------------

Kernel::Scope::Scope(Kernel& k, Process& p, Sys nr)
    : k_(k), p_(p), nr_(nr), cycles0_(base::cycles()) {
  // Per-task copy counters: the audit byte deltas stay correct when other
  // tasks dispatch concurrently on sibling CPUs.
  in0_ = p_.task.bytes_from_user;
  out0_ = p_.task.bytes_to_user;
  kunits0_ = p_.task.times().kernel;
  // The call's tracer and injector are picked once, here: every
  // tracepoint and fault point it crosses reads them from base::Current.
  base::Current& cur = base::current();
  outer_ktrace_ = std::exchange(cur.ktrace, k_.ktrace_.armed());
  outer_kfail_ = std::exchange(cur.kfail, k_.kfail_.armed());
  outer_pid_ = std::exchange(cur.pid, p_.task.pid());
  USK_TRACEPOINT("syscall", "enter", static_cast<std::uint64_t>(nr));
  k_.boundary_.enter_kernel(p_.task);
  ++p_.task.syscalls;
  k_.sched_.enter(p_.task);
  // kdl gateway: an expired or canceled request fails fast here instead
  // of spending kernel units on work whose answer nobody will take.
  // Disarmed, this is one relaxed load.
  gate_err_ = k_.dl_.fail_fast(&p_.task, dl::Kdl::Site::kGateway);
}

Kernel::Scope::~Scope() {
  k_.boundary_.exit_kernel(p_.task);
  sched::Task& t = p_.task;
  const SyscallRecord r{t.pid(), nr_, ret_,
                        static_cast<std::uint32_t>(t.bytes_from_user - in0_),
                        static_cast<std::uint32_t>(t.bytes_to_user - out0_),
                        t.times().kernel - kunits0_,
                        base::cycles_to_ns(cycles0_, base::cycles())};
  t.kernel_wall_ns += r.wall_ns;
  // Always-on log2 latency histogram (the wall time is already in hand,
  // so this is a few relaxed increments).
  k_.syscall_lat_[static_cast<std::size_t>(r.nr) % k_.syscall_lat_.size()]
      .record(r.wall_ns);
  USK_TRACEPOINT("syscall", "exit", static_cast<std::uint64_t>(r.nr),
                 static_cast<std::uint64_t>(r.ret));
  // Span attribution: the innermost open span (if any) absorbs this
  // call's crossing and deltas. No span -> one thread-local load.
  base::Current& cur = base::current();
  if (trace::SpanScope* sp = cur.span) {
    sp->attribute_syscall(r.pid, r.bytes_in, r.bytes_out, r.kunits, r.ret);
  }
  // Subscribers (audit, supervisors): one relaxed load when there are none.
  if (k_.has_subscribers()) k_.publish(r);
  cur.ktrace = outer_ktrace_;
  cur.kfail = outer_kfail_;
  cur.pid = outer_pid_;
}

// --- park -------------------------------------------------------------------

Result<Kernel::Parked> Kernel::park(sched::WaitQueue& wq,
                                    sched::WaitQueue::Token tok,
                                    const sched::WaitQueue::Deadline* user) {
  // kdl: the request's deadline tightens the caller's own bound. Which
  // one binds decides what its expiry means: the request's is an error
  // (ETIMEDOUT), the caller's its own normal return (kUserDeadline).
  const sched::WaitQueue::Deadline* bound = user;
  sched::WaitQueue::Deadline request_deadline;
  bool request_bound = false;
  if (const dl::DeadlineScope* ds = base::current().deadline;
      ds != nullptr && (user == nullptr || ds->deadline() < *user)) {
    request_deadline = ds->deadline();
    bound = &request_deadline;
    request_bound = true;
  }
  // A request already late fails fast instead of sleeping first.
  const bool late = request_bound &&
                    request_deadline <= std::chrono::steady_clock::now();
  if (!late) {
    // kfail: a spurious wake re-checks the caller's predicate instead of
    // sleeping; wake-safe park loops absorb it by construction.
    if (auto f = USK_FAIL_POINT(fault::Site::kDlSpuriousWake);
        f.fail || f.transient) {
      dl_.stats().spurious_wakes.fetch_add(1, std::memory_order_relaxed);
      return Parked::kWoken;
    }
  }
  switch (late ? sched::WaitQueue::Wait::kTimeout
               : sched_.block(wq, tok, bound)) {
    case sched::WaitQueue::Wait::kWoken:
      return Parked::kWoken;
    case sched::WaitQueue::Wait::kKilled:
      return Errno::kEINTR;
    case sched::WaitQueue::Wait::kCanceled:
      dl_.stats().park_canceled.fetch_add(1, std::memory_order_relaxed);
      return Errno::kECANCELED;
    case sched::WaitQueue::Wait::kTimeout:
      break;
  }
  if (!request_bound) return Parked::kUserDeadline;
  dl_.stats().park_expired.fetch_add(1, std::memory_order_relaxed);
  return Errno::kETIMEDOUT;
}

// --- helpers ----------------------------------------------------------------
// fetch_path() and CallerBuf (kernel.hpp) are the only places the
// copy-or-share decision is made (see BufMode); the handlers below never
// branch on it.

Result<std::string_view> Kernel::fetch_path(Process& p, BufMode m,
                                            std::uint64_t path, char* kpath) {
  const auto* src =
      reinterpret_cast<const char*>(static_cast<std::uintptr_t>(path));
  if (src == nullptr) return Errno::kEFAULT;
  if (m == BufMode::kKernel) {
    const std::size_t len = strnlen(src, kMaxPath);
    if (len == kMaxPath) return Errno::kENAMETOOLONG;
    return std::string_view(src, len);
  }
  Result<std::size_t> len =
      boundary_.strncpy_from_user(p.task, kpath, src, kMaxPath);
  if (!len) return len.error();
  return std::string_view(kpath, len.value());
}

// --- the gateway --------------------------------------------------------------

SysRet Kernel::syscall(Process& p, Sys nr, const SysArgs& a) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  if (idx < table_.size()) {
    const SysEntry& e = table_[idx];
    if (const SysFn fn = e.fn.load(std::memory_order_acquire)) {
      void* ctx = e.ctx.load(std::memory_order_relaxed);
      // A call that is not nestable owns its crossing (see
      // register_syscall).
      if (!sys_sig(nr).nestable) return fn(ctx, p, a, BufMode::kUser);
      // The Scope is constructed HERE for every other entry: one
      // crossing, one audit record, one latency sample per call.
      Scope scope(*this, p, nr);
      if (SysRet g = scope.gate(); g != 0) return g;
      return scope.done(fn(ctx, p, a, BufMode::kUser));
    }
  }
  Scope scope(*this, p, nr);
  return scope.fail(Errno::kENOSYS);
}

SysRet Kernel::dispatch_nested(Process& p, Sys nr, const SysArgs& a,
                               BufMode mode) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  if (idx >= table_.size() || !sys_sig(nr).nestable) {
    return sysret_err(Errno::kENOSYS);
  }
  const SysEntry& e = table_[idx];
  const SysFn fn = e.fn.load(std::memory_order_acquire);
  if (fn == nullptr) return sysret_err(Errno::kENOSYS);
  return fn(e.ctx.load(std::memory_order_relaxed), p, a, mode);
}

void Kernel::install(Sys nr, SysFn fn, void* ctx) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  if (idx >= table_.size()) return;
  SysEntry& e = table_[idx];
  if (e.fn.load(std::memory_order_acquire) != nullptr) return;
  // fn is published last (release), so a dispatch that sees it also sees
  // its ctx.
  e.ctx.store(ctx, std::memory_order_relaxed);
  e.fn.store(fn, std::memory_order_release);
}

void Kernel::unregister_syscall(Sys nr) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  if (idx < table_.size()) {
    table_[idx].fn.store(nullptr, std::memory_order_release);
  }
}

// --- the fd ledger ----------------------------------------------------------

FdLedger::FdLedger(Kernel& k, Process& p)
    : k_(k), p_(p), outer_(std::exchange(base::current().ledger, this)) {}

FdLedger::~FdLedger() {
  base::current().ledger = outer_;
  if (outer_ != nullptr) {
    for (const Held& h : held_) outer_->hold(h.fd);
  }
}

void FdLedger::hold(int fd) {
  held_.push_back(Held{fd, tag_});
  latest_ = fd;
}

SysRet FdLedger::note(Sys nr, const SysArgs& a, SysRet ret) {
  if (ret < 0) return ret;
  switch (sys_sig(nr).ret) {
    case RetType::kFdNew:
      hold(static_cast<int>(ret));
      break;
    case RetType::kFdClose: {
      const auto fd = static_cast<int>(a.a0);
      std::erase_if(held_, [fd](const Held& h) { return h.fd == fd; });
      if (latest_ == fd) latest_ = -1;
      break;
    }
    case RetType::kCount:
      break;
  }
  return ret;
}

std::vector<std::size_t> FdLedger::rollback(bool classic) {
  std::vector<std::size_t> closed;
  for (const Held& h : held_) {
    const SysArgs a{static_cast<std::uint64_t>(h.fd)};
    const SysRet r = classic ? k_.syscall(p_, Sys::kClose, a)
                             : k_.dispatch_nested(p_, Sys::kClose, a);
    if (r == 0) closed.push_back(h.tag);
  }
  held_.clear();
  latest_ = -1;
  return closed;
}

// --- typed wrappers (the userlib-facing ABI) ----------------------------------

SysRet Kernel::sys_open(Process& p, const char* upath, int flags,
                        std::uint32_t mode) {
  return syscall(p, Sys::kOpen, {uarg(upath), iarg(flags), mode});
}
SysRet Kernel::sys_close(Process& p, int fd) {
  return syscall(p, Sys::kClose, {iarg(fd)});
}
SysRet Kernel::sys_dup(Process& p, int fd) {
  return syscall(p, Sys::kDup, {iarg(fd)});
}
SysRet Kernel::sys_read(Process& p, int fd, void* ubuf, std::size_t n) {
  return syscall(p, Sys::kRead, {iarg(fd), uarg(ubuf), n});
}
SysRet Kernel::sys_write(Process& p, int fd, const void* ubuf,
                         std::size_t n) {
  return syscall(p, Sys::kWrite, {iarg(fd), uarg(ubuf), n});
}
SysRet Kernel::sys_lseek(Process& p, int fd, std::int64_t off, int whence) {
  return syscall(p, Sys::kLseek, {iarg(fd), iarg(off), iarg(whence)});
}
SysRet Kernel::sys_stat(Process& p, const char* upath, fs::StatBuf* ust) {
  return syscall(p, Sys::kStat, {uarg(upath), uarg(ust)});
}
SysRet Kernel::sys_fstat(Process& p, int fd, fs::StatBuf* ust) {
  return syscall(p, Sys::kFstat, {iarg(fd), uarg(ust)});
}
SysRet Kernel::sys_readdir(Process& p, int fd, void* ubuf, std::size_t n) {
  return syscall(p, Sys::kReaddir, {iarg(fd), uarg(ubuf), n});
}
SysRet Kernel::sys_unlink(Process& p, const char* upath) {
  return syscall(p, Sys::kUnlink, {uarg(upath)});
}
SysRet Kernel::sys_mkdir(Process& p, const char* upath, std::uint32_t mode) {
  return syscall(p, Sys::kMkdir, {uarg(upath), mode});
}
SysRet Kernel::sys_rmdir(Process& p, const char* upath) {
  return syscall(p, Sys::kRmdir, {uarg(upath)});
}
SysRet Kernel::sys_rename(Process& p, const char* ufrom, const char* uto) {
  return syscall(p, Sys::kRename, {uarg(ufrom), uarg(uto)});
}
SysRet Kernel::sys_truncate(Process& p, const char* upath,
                            std::uint64_t size) {
  return syscall(p, Sys::kTruncate, {uarg(upath), size});
}
SysRet Kernel::sys_getpid(Process& p) { return syscall(p, Sys::kGetpid); }
SysRet Kernel::sys_sync(Process& p) { return syscall(p, Sys::kSync); }
SysRet Kernel::sys_fsync(Process& p, int fd) {
  return syscall(p, Sys::kFsync, {iarg(fd)});
}
SysRet Kernel::sys_fdatasync(Process& p, int fd) {
  return syscall(p, Sys::kFdatasync, {iarg(fd)});
}
SysRet Kernel::sys_link(Process& p, const char* ufrom, const char* uto) {
  return syscall(p, Sys::kLink, {uarg(ufrom), uarg(uto)});
}
SysRet Kernel::sys_chmod(Process& p, const char* upath, std::uint32_t mode) {
  return syscall(p, Sys::kChmod, {uarg(upath), mode});
}

// --- handlers -----------------------------------------------------------------
// Error-path discipline (audited, regression-tested in test_uk.cpp):
// descriptor validity (EBADF) is decided BEFORE any user-memory copy or
// kernel buffer allocation, and user copies are fallible -- a faulted
// copy-out rewinds file position so no data is silently consumed.

SysRet Kernel::do_open(Process& p, const SysArgs& a, BufMode m) {
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  Result<int> r = vfs_.open(p.fds, path.value(), static_cast<int>(a.a1),
                            static_cast<std::uint32_t>(a.a2));
  if (!r) return sysret_err(r.error());
  return r.value();
}

SysRet Kernel::do_close(Process& p, const SysArgs& a, BufMode /*m*/) {
  Result<void> r = vfs_.close(p.fds, static_cast<int>(a.a0));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_dup(Process& p, const SysArgs& a, BufMode /*m*/) {
  Result<int> r = vfs_.dup(p.fds, static_cast<int>(a.a0));
  if (!r) return sysret_err(r.error());
  return r.value();
}

SysRet Kernel::do_read(Process& p, const SysArgs& a, BufMode m) {
  const int fd = static_cast<int>(a.a0);
  std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  // EBADF before EFAULT, and before any buffer allocation: a bad
  // descriptor must not cost a kernel allocation or touch user memory.
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr || (f->flags & fs::kAccessMode) == fs::kOWrOnly) {
    return sysret_err(Errno::kEBADF);
  }
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  CallerBuf buf(boundary_, p.task, m, a.a1, n);
  std::byte* kbuf = buf.data();
  Result<std::size_t> r = vfs_.read(p.fds, fd, std::span(kbuf, n));
  if (!r) return sysret_err(r.error());
  if (r.value() > 0) {
    if (Result<std::size_t> c = buf.out(kbuf, r.value()); !c) {
      // The user never saw the bytes: rewind the position the VFS
      // advanced so the data is not silently consumed.
      f->pos -= r.value();
      return sysret_err(c.error());
    }
  }
  return static_cast<SysRet>(r.value());
}

SysRet Kernel::do_write(Process& p, const SysArgs& a, BufMode m) {
  const int fd = static_cast<int>(a.a0);
  std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  // Validate the descriptor before paying for the copy-in: a bad or
  // read-only fd must fail without charging the caller for user->kernel
  // bytes (parity with do_read, which never copies on EBADF).
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr || (f->flags & fs::kAccessMode) == fs::kORdOnly) {
    return sysret_err(Errno::kEBADF);
  }
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  CallerBuf buf(boundary_, p.task, m, a.a1, n);
  if (Result<std::size_t> c = buf.in(); !c) return sysret_err(c.error());
  Result<std::size_t> r = vfs_.write(p.fds, fd, std::span(buf.data(), n));
  if (!r) return sysret_err(r.error());
  return static_cast<SysRet>(r.value());
}

SysRet Kernel::do_lseek(Process& p, const SysArgs& a, BufMode /*m*/) {
  Result<std::uint64_t> r =
      vfs_.lseek(p.fds, static_cast<int>(a.a0),
                 static_cast<std::int64_t>(a.a1), static_cast<int>(a.a2));
  if (!r) return sysret_err(r.error());
  return static_cast<SysRet>(r.value());
}

SysRet Kernel::do_stat(Process& p, const SysArgs& a, BufMode m) {
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  fs::StatBuf st;
  Result<void> r = vfs_.stat(path.value(), &st);
  if (!r.ok()) return sysret_err(r.error());
  CallerBuf buf(boundary_, p.task, m, a.a1, sizeof(st));
  if (Result<std::size_t> c = buf.out(&st, sizeof(st)); !c) {
    return sysret_err(c.error());
  }
  return 0;
}

SysRet Kernel::do_fstat(Process& p, const SysArgs& a, BufMode m) {
  // EBADF before EFAULT: descriptor validity is decided first, like
  // Linux's fstat (fdget before copy_to_user can fault).
  fs::StatBuf st;
  Result<void> r = vfs_.fstat(p.fds, static_cast<int>(a.a0), &st);
  if (!r.ok()) return sysret_err(r.error());
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  CallerBuf buf(boundary_, p.task, m, a.a1, sizeof(st));
  if (Result<std::size_t> c = buf.out(&st, sizeof(st)); !c) {
    return sysret_err(c.error());
  }
  return 0;
}

SysRet Kernel::do_readdir(Process& p, const SysArgs& a, BufMode m) {
  const int fd = static_cast<int>(a.a0);
  std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  // EBADF before EFAULT (see do_read).
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr) return sysret_err(Errno::kEBADF);
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);

  // Estimate how many entries can fit, fetch a window, pack what fits.
  std::size_t max_entries = std::max<std::size_t>(1, n / sizeof(DirentHdr));
  Result<std::vector<fs::DirEntry>> win =
      vfs_.readdir_window(p.fds, fd, f->pos, max_entries);
  if (!win) return sysret_err(win.error());

  CallerBuf buf(boundary_, p.task, m, a.a1, n);
  std::byte* kbuf = buf.data();
  std::size_t off = 0;
  std::size_t taken = 0;
  for (const fs::DirEntry& de : win.value()) {
    std::size_t rec = sizeof(DirentHdr) + de.name.size();
    if (off + rec > n) break;
    DirentHdr hdr{de.ino, static_cast<std::uint8_t>(de.type),
                  static_cast<std::uint8_t>(de.name.size())};
    std::memcpy(kbuf + off, &hdr, sizeof(hdr));
    std::memcpy(kbuf + off + sizeof(hdr), de.name.data(), de.name.size());
    off += rec;
    ++taken;
  }
  if (off > 0) {
    if (Result<std::size_t> c = buf.out(kbuf, off); !c) {
      // Position was not advanced yet: the faulted batch is re-readable.
      return sysret_err(c.error());
    }
  }
  f->pos += taken;
  return static_cast<SysRet>(off);
}

SysRet Kernel::do_unlink(Process& p, const SysArgs& a, BufMode m) {
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  Result<void> r = vfs_.unlink(path.value());
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_mkdir(Process& p, const SysArgs& a, BufMode m) {
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  Result<void> r = vfs_.mkdir(path.value(), static_cast<std::uint32_t>(a.a1));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_rmdir(Process& p, const SysArgs& a, BufMode m) {
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  Result<void> r = vfs_.rmdir(path.value());
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_rename(Process& p, const SysArgs& a, BufMode m) {
  char kfrom[kMaxPath];
  char kto[kMaxPath];
  Result<std::string_view> from = fetch_path(p, m, a.a0, kfrom);
  if (!from) return sysret_err(from.error());
  Result<std::string_view> to = fetch_path(p, m, a.a1, kto);
  if (!to) return sysret_err(to.error());
  Result<void> r = vfs_.rename(from.value(), to.value());
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_truncate(Process& p, const SysArgs& a, BufMode m) {
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  Result<void> r = vfs_.truncate(path.value(), a.a1);
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_getpid(Process& p, const SysArgs& /*a*/, BufMode /*m*/) {
  return static_cast<SysRet>(p.task.pid());
}

SysRet Kernel::do_sync(Process& /*p*/, const SysArgs& /*a*/, BufMode /*m*/) {
  Result<void> r = vfs_.filesystem().sync();
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_fsync(Process& p, const SysArgs& a, BufMode /*m*/) {
  Result<void> r = vfs_.fsync(p.fds, static_cast<int>(a.a0),
                              /*datasync=*/false);
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_fdatasync(Process& p, const SysArgs& a, BufMode /*m*/) {
  Result<void> r = vfs_.fsync(p.fds, static_cast<int>(a.a0),
                              /*datasync=*/true);
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_link(Process& p, const SysArgs& a, BufMode m) {
  char kfrom[kMaxPath];
  char kto[kMaxPath];
  Result<std::string_view> from = fetch_path(p, m, a.a0, kfrom);
  if (!from) return sysret_err(from.error());
  Result<std::string_view> to = fetch_path(p, m, a.a1, kto);
  if (!to) return sysret_err(to.error());
  Result<void> r = vfs_.link(from.value(), to.value());
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_chmod(Process& p, const SysArgs& a, BufMode m) {
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  Result<void> r =
      vfs_.chmod(path.value(), static_cast<std::uint32_t>(a.a1));
  return r.ok() ? 0 : sysret_err(r.error());
}

// --- consolidated calls (§2.2) -----------------------------------------------
// Each runs a whole sequence under the one Scope syscall() built: the
// three open-*-close calls are sequences of the handlers above (see
// open_io_close), passing their own BufMode to every step, so each step
// keeps its classic semantics.

SysRet Kernel::do_readdirplus(Process& p, const SysArgs& a, BufMode m) {
  if (a.a1 == 0 || a.a3 == 0) return sysret_err(Errno::kEFAULT);
  char kpath[kMaxPath];
  Result<std::string_view> path = fetch_path(p, m, a.a0, kpath);
  if (!path) return sysret_err(path.error());
  CallerBuf ucookie(boundary_, p.task, m, a.a3, sizeof(std::uint64_t));
  if (Result<std::size_t> c = ucookie.in(); !c) return sysret_err(c.error());
  std::uint64_t cookie = 0;
  std::memcpy(&cookie, ucookie.data(), sizeof(cookie));

  Result<fs::Vfs::Loc> dir = vfs_.resolve_loc(path.value());
  if (!dir) return sysret_err(dir.error());

  const std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  const std::size_t max_entries =
      std::max<std::size_t>(1, n / sizeof(DirentPlusHdr));
  Result<std::vector<fs::DirEntry>> win =
      vfs_.readdir_window_at(dir.value(), cookie, max_entries);
  if (!win) return sysret_err(win.error());

  CallerBuf buf(boundary_, p.task, m, a.a1, n);
  std::byte* kbuf = buf.data();
  std::size_t off = 0;
  std::uint64_t taken = 0;
  for (const fs::DirEntry& de : win.value()) {
    const std::size_t rec = sizeof(DirentPlusHdr) + de.name.size();
    if (off + rec > n) break;
    DirentPlusHdr hdr{};
    // In-kernel stat: no extra crossing, no path re-walk (we already hold
    // the inode number).
    Errno e = vfs_.getattr_at(
        fs::Vfs::Loc{dir.value().fs, de.ino, dir.value().fs_id}, &hdr.st);
    if (e != Errno::kOk) continue;  // raced with unlink; skip
    hdr.namelen = static_cast<std::uint8_t>(de.name.size());
    std::memcpy(kbuf + off, &hdr, sizeof(hdr));
    std::memcpy(kbuf + off + sizeof(hdr), de.name.data(), de.name.size());
    off += rec;
    ++taken;
  }
  // Entries first, cookie second: if either copy-out faults the cookie in
  // the caller's memory still matches what the caller actually received.
  if (off > 0) {
    if (Result<std::size_t> c = buf.out(kbuf, off); !c) {
      return sysret_err(c.error());
    }
  }
  cookie += taken;
  if (Result<std::size_t> c = ucookie.out(&cookie, sizeof(cookie)); !c) {
    return sysret_err(c.error());
  }
  return static_cast<SysRet>(off);
}

SysRet Kernel::open_io_close(Process& p, const SysArgs& a, BufMode m,
                             Sys io, int flags, std::uint32_t mode,
                             bool seek) {
  if (a.a1 == 0) return sysret_err(Errno::kEFAULT);
  const SysRet fd = dispatch_nested(
      p, Sys::kOpen, {a.a0, static_cast<std::uint64_t>(flags), mode}, m);
  if (fd < 0) return fd;
  const auto ufd = static_cast<std::uint64_t>(fd);
  SysRet r = 0;
  if (seek) {
    r = dispatch_nested(p, Sys::kLseek, {ufd, a.a3, fs::kSeekSet}, m);
  }
  if (r >= 0) r = dispatch_nested(p, io, {ufd, a.a1, a.a2}, m);
  dispatch_nested(p, Sys::kClose, {ufd}, m);
  return r;
}

SysRet Kernel::do_open_read_close(Process& p, const SysArgs& a, BufMode m) {
  return open_io_close(p, a, m, Sys::kRead, fs::kORdOnly, 0, true);
}

SysRet Kernel::do_open_write_close(Process& p, const SysArgs& a, BufMode m) {
  const auto flags = static_cast<int>(a.a4);
  return open_io_close(
      p, a, m, Sys::kWrite,
      fs::kOWrOnly | (flags & (fs::kOCreat | fs::kOTrunc | fs::kOAppend)),
      0644, (flags & fs::kOAppend) == 0);
}

SysRet Kernel::do_open_fstat(Process& p, const SysArgs& a, BufMode m) {
  return open_io_close(p, a, m, Sys::kFstat, fs::kORdOnly, 0, false);
}

}  // namespace usk::uk
