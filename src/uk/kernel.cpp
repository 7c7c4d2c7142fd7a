#include "uk/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "dl/dl.hpp"
#include "fs/procfs.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"
#include "uk/kproc.hpp"

namespace usk::uk {

Kernel::Kernel(fs::FileSystem& rootfs, KernelConfig cfg)
    : phys_(cfg.phys_frames),
      kernel_as_(phys_, "kernel"),
      kmalloc_(phys_, cfg.kmalloc_per_cpu_cache),
      vmalloc_(kernel_as_, cfg.vmalloc_base, cfg.vmalloc_pages),
      sched_(cfg.sched_quantum),
      boundary_(engine_, cfg.boundary),
      vfs_(rootfs, cfg.dcache_capacity, cfg.dcache_shards) {}

Kernel::~Kernel() = default;

// --- supervisor gateway -------------------------------------------------------

namespace {
std::atomic<SupGatewayFn> g_sup_fn{nullptr};
std::atomic<void*> g_sup_ctx{nullptr};
}  // namespace

void set_sup_gateway(SupGatewayFn fn, void* ctx) {
  if (fn == nullptr) {
    // Disarm first so in-flight Scopes stop consulting the pointer pair
    // before it is cleared.
    supdetail::g_armed.store(false, std::memory_order_release);
    g_sup_fn.store(nullptr, std::memory_order_release);
    g_sup_ctx.store(nullptr, std::memory_order_release);
    return;
  }
  g_sup_ctx.store(ctx, std::memory_order_release);
  g_sup_fn.store(fn, std::memory_order_release);
  supdetail::g_armed.store(true, std::memory_order_release);
}

fs::ProcFs& Kernel::mount_procfs() {
  std::lock_guard lk(spawn_mu_);
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
  std::lock_guard lk(spawn_mu_);
  // Round-robin affinity: pooled dispatchers enqueue onto the task's home
  // runqueue; direct dispatch ignores it (enter() runs wherever called).
  sched_.bind(t, procs_.size() % sched_.cpu_count());
  procs_.push_back(std::make_unique<Process>(t));
  return *procs_.back();
}

// --- Scope ------------------------------------------------------------------

Kernel::Scope::Scope(Kernel& k, Process& p, Sys nr)
    : k_(k), p_(p), nr_(nr), wall0_(std::chrono::steady_clock::now()) {
  // Per-task copy counters: the audit byte deltas stay correct when other
  // tasks dispatch concurrently on sibling CPUs.
  in0_ = p_.task.bytes_from_user;
  out0_ = p_.task.bytes_to_user;
  kunits0_ = p_.task.times().kernel;
  trace::set_current_pid(p_.task.pid());
  USK_TRACEPOINT("syscall", "enter", static_cast<std::uint64_t>(nr));
  k_.boundary_.enter_kernel(p_.task);
  ++p_.task.syscalls;
  k_.sched_.enter(p_.task);
  // kdl gateway: an expired or canceled request fails fast here instead
  // of spending kernel units on work whose answer nobody will take.
  // Disarmed, this whole block is one relaxed load.
  if (dl::dl_enabled()) gate_err_ = dl::gate_check(&p_.task);
}

Kernel::Scope::~Scope() {
  k_.boundary_.exit_kernel(p_.task);
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0_)
          .count());
  p_.task.kernel_wall_ns += wall_ns;
  // Always-on log2 latency histogram (the wall time is already in hand,
  // so this is one relaxed increment -- see trace::Ktrace).
  trace::ktrace().record_syscall(static_cast<std::uint16_t>(nr_), wall_ns);
  USK_TRACEPOINT("syscall", "exit", static_cast<std::uint64_t>(nr_),
                 static_cast<std::uint64_t>(ret_));
  AuditRecord r;
  r.pid = p_.task.pid();
  r.nr = nr_;
  r.ret = ret_;
  r.bytes_in = static_cast<std::uint32_t>(p_.task.bytes_from_user - in0_);
  r.bytes_out = static_cast<std::uint32_t>(p_.task.bytes_to_user - out0_);
  k_.audit_.record(r);
  // Span attribution: the innermost open span (if any) absorbs this
  // call's crossing and its byte/unit deltas. No span -> one
  // thread-local load, same discipline as the gateway check below.
  if (trace::SpanScope* sp = trace::SpanScope::current()) {
    sp->attribute_syscall(r.bytes_in, r.bytes_out,
                          p_.task.times().kernel - kunits0_, ret_);
  }
  // Supervisor gateway: one relaxed load when no supervisor is registered.
  if (sup_gateway_armed()) {
    if (SupGatewayFn fn = g_sup_fn.load(std::memory_order_acquire)) {
      fn(g_sup_ctx.load(std::memory_order_acquire), p_, nr_, ret_,
         p_.task.times().kernel - kunits0_);
    }
  }
}

// --- helpers ----------------------------------------------------------------
// fetch_path() and CallerBuf are the only places the copy-or-share
// decision is made (see BufMode); the handlers below never branch on it.

namespace {
template <typename T>
T* uptr(std::uint64_t v) {
  return reinterpret_cast<T*>(static_cast<std::uintptr_t>(v));
}

/// One caller buffer of `n` bytes, as a handler sees it. kUser stages the
/// bytes in a kernel bounce buffer and moves them with copy_{from,to}_user;
/// kKernel hands out the caller's memory itself, so moving bytes between
/// it and data() costs nothing.
class CallerBuf {
 public:
  CallerBuf(Boundary& b, sched::Task& t, BufMode m, std::uint64_t buf,
            std::size_t n)
      : b_(b), t_(t), shared_(m == BufMode::kKernel),
        buf_(uptr<std::byte>(buf)), n_(n) {}

  /// Kernel-side bytes for the handler to fill or consume.
  std::byte* data() {
    if (shared_) return buf_;
    bounce_.resize(n_);
    return bounce_.data();
  }
  /// Buffer in: the caller's n bytes into data().
  Result<std::size_t> in() {
    if (shared_) return n_;
    return b_.copy_from_user(t_, data(), buf_, n_);
  }
  /// Buffer out: `len` bytes of kernel memory (data() or a kernel object)
  /// into the caller's buffer.
  Result<std::size_t> out(const void* ksrc, std::size_t len) {
    if (!shared_) return b_.copy_to_user(t_, buf_, ksrc, len);
    if (ksrc != buf_) std::memcpy(buf_, ksrc, len);
    return len;
  }

 private:
  Boundary& b_;
  sched::Task& t_;
  const bool shared_;
  std::byte* const buf_;
  const std::size_t n_;
  std::vector<std::byte> bounce_;
};
}  // namespace

Result<std::string_view> Kernel::fetch_path(Process& p, BufMode m,
                                            std::uint64_t path, char* kpath) {
  const char* src = uptr<const char>(path);
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

const Kernel::HandlerTable& Kernel::handlers() {
  static const HandlerTable table = [] {
    HandlerTable t{};
    auto set = [&t](Sys nr, SysHandler h) {
      t[static_cast<std::size_t>(nr)] = h;
    };
    set(Sys::kOpen, &Kernel::do_open);
    set(Sys::kClose, &Kernel::do_close);
    set(Sys::kDup, &Kernel::do_dup);
    set(Sys::kRead, &Kernel::do_read);
    set(Sys::kWrite, &Kernel::do_write);
    set(Sys::kLseek, &Kernel::do_lseek);
    set(Sys::kStat, &Kernel::do_stat);
    set(Sys::kFstat, &Kernel::do_fstat);
    set(Sys::kReaddir, &Kernel::do_readdir);
    set(Sys::kUnlink, &Kernel::do_unlink);
    set(Sys::kMkdir, &Kernel::do_mkdir);
    set(Sys::kRmdir, &Kernel::do_rmdir);
    set(Sys::kRename, &Kernel::do_rename);
    set(Sys::kTruncate, &Kernel::do_truncate);
    set(Sys::kGetpid, &Kernel::do_getpid);
    set(Sys::kSync, &Kernel::do_sync);
    set(Sys::kFsync, &Kernel::do_fsync);
    set(Sys::kFdatasync, &Kernel::do_fdatasync);
    set(Sys::kLink, &Kernel::do_link);
    set(Sys::kChmod, &Kernel::do_chmod);
    return t;
  }();
  return table;
}

SysRet Kernel::syscall(Process& p, Sys nr, const SysArgs& a) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  const SysHandler h = idx < handlers().size() ? handlers()[idx] : nullptr;
  if (h != nullptr) {
    // The Scope is constructed HERE for every table-dispatched call: one
    // crossing, one audit record, one ktrace sample per entry.
    Scope scope(*this, p, nr);
    if (SysRet g = scope.gate(); g != 0) return g;
    return scope.done((this->*h)(p, a, BufMode::kUser));
  }
  if (idx < external_.size()) {
    if (ExternalSysFn fn = external_[idx].fn.load(std::memory_order_acquire)) {
      // Runtime-registered slot: the handler owns its Scope discipline.
      return fn(external_[idx].ctx.load(std::memory_order_acquire), *this, p,
                a);
    }
  }
  Scope scope(*this, p, nr);
  return scope.fail(Errno::kENOSYS);
}

void Kernel::register_syscall(Sys nr, ExternalSysFn fn, void* ctx) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  if (idx >= external_.size() || handlers()[idx] != nullptr) return;
  if (fn == nullptr) {
    // Disarm the function first so a racing dispatch never pairs the old
    // fn with a cleared ctx.
    external_[idx].fn.store(nullptr, std::memory_order_release);
    external_[idx].ctx.store(nullptr, std::memory_order_release);
    return;
  }
  external_[idx].ctx.store(ctx, std::memory_order_release);
  external_[idx].fn.store(fn, std::memory_order_release);
}

SysRet Kernel::dispatch_nested(Process& p, Sys nr, const SysArgs& a,
                               BufMode mode) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  const SysHandler h = idx < handlers().size() ? handlers()[idx] : nullptr;
  if (h == nullptr) return sysret_err(Errno::kENOSYS);
  return (this->*h)(p, a, mode);
}

// --- typed wrappers (the userlib-facing ABI) ----------------------------------

SysRet Kernel::sys_open(Process& p, const char* upath, int flags,
                        std::uint32_t mode) {
  return syscall(p, Sys::kOpen,
                 {uarg(upath), static_cast<std::uint64_t>(flags), mode, 0});
}
SysRet Kernel::sys_close(Process& p, int fd) {
  return syscall(p, Sys::kClose, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_dup(Process& p, int fd) {
  return syscall(p, Sys::kDup, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_read(Process& p, int fd, void* ubuf, std::size_t n) {
  return syscall(p, Sys::kRead,
                 {static_cast<std::uint64_t>(fd), uarg(ubuf), n, 0});
}
SysRet Kernel::sys_write(Process& p, int fd, const void* ubuf,
                         std::size_t n) {
  return syscall(p, Sys::kWrite,
                 {static_cast<std::uint64_t>(fd), uarg(ubuf), n, 0});
}
SysRet Kernel::sys_lseek(Process& p, int fd, std::int64_t off, int whence) {
  return syscall(p, Sys::kLseek,
                 {static_cast<std::uint64_t>(fd),
                  static_cast<std::uint64_t>(off),
                  static_cast<std::uint64_t>(whence), 0});
}
SysRet Kernel::sys_stat(Process& p, const char* upath, fs::StatBuf* ust) {
  return syscall(p, Sys::kStat, {uarg(upath), uarg(ust), 0, 0});
}
SysRet Kernel::sys_fstat(Process& p, int fd, fs::StatBuf* ust) {
  return syscall(p, Sys::kFstat,
                 {static_cast<std::uint64_t>(fd), uarg(ust), 0, 0});
}
SysRet Kernel::sys_readdir(Process& p, int fd, void* ubuf, std::size_t n) {
  return syscall(p, Sys::kReaddir,
                 {static_cast<std::uint64_t>(fd), uarg(ubuf), n, 0});
}
SysRet Kernel::sys_unlink(Process& p, const char* upath) {
  return syscall(p, Sys::kUnlink, {uarg(upath)});
}
SysRet Kernel::sys_mkdir(Process& p, const char* upath, std::uint32_t mode) {
  return syscall(p, Sys::kMkdir, {uarg(upath), mode, 0, 0});
}
SysRet Kernel::sys_rmdir(Process& p, const char* upath) {
  return syscall(p, Sys::kRmdir, {uarg(upath)});
}
SysRet Kernel::sys_rename(Process& p, const char* ufrom, const char* uto) {
  return syscall(p, Sys::kRename, {uarg(ufrom), uarg(uto), 0, 0});
}
SysRet Kernel::sys_truncate(Process& p, const char* upath,
                            std::uint64_t size) {
  return syscall(p, Sys::kTruncate, {uarg(upath), size, 0, 0});
}
SysRet Kernel::sys_getpid(Process& p) { return syscall(p, Sys::kGetpid); }
SysRet Kernel::sys_sync(Process& p) { return syscall(p, Sys::kSync); }
SysRet Kernel::sys_fsync(Process& p, int fd) {
  return syscall(p, Sys::kFsync, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_fdatasync(Process& p, int fd) {
  return syscall(p, Sys::kFdatasync, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_link(Process& p, const char* ufrom, const char* uto) {
  return syscall(p, Sys::kLink, {uarg(ufrom), uarg(uto), 0, 0});
}
SysRet Kernel::sys_chmod(Process& p, const char* upath, std::uint32_t mode) {
  return syscall(p, Sys::kChmod, {uarg(upath), mode, 0, 0});
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

}  // namespace usk::uk
