// The simulated kernel: boundary + scheduler + memory + VFS + syscalls.
//
// A Kernel is assembled around a caller-provided root FileSystem (so
// benchmarks can stack WrapFs/JournalFs/MemFs as the paper's experiments
// require). The classic file calls and the file consolidations (§2.2) are
// implemented here as table handlers, the compound executor (§2.3) in
// src/cosy; all are built on the same Scope discipline so every call pays
// exactly one boundary crossing and its copies are accounted.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/work.hpp"
#include "dl/dl.hpp"
#include "fs/memfs.hpp"
#include "fs/vfs.hpp"
#include "mm/kmalloc.hpp"
#include "mm/vmalloc.hpp"
#include "sched/scheduler.hpp"
#include "trace/histogram.hpp"
#include "uk/audit.hpp"
#include "uk/boundary.hpp"
#include "vm/address_space.hpp"
#include "vm/phys.hpp"

namespace usk::fs {
class ProcFs;
}

namespace usk::uk {

struct KernelConfig {
  std::size_t phys_frames = 1 << 16;  ///< 256 MiB of simulated RAM
  CostModel boundary;
  std::size_t dcache_capacity = 8192;
  /// Dcache lock sharding. 1 = the paper's single global dcache_lock
  /// (what bench_evmon's E6 reproduction measures); the default spreads
  /// the namespace across independent locks for parallel dispatch.
  std::size_t dcache_shards = fs::Dcache::kDefaultShards;
  /// Put per-CPU magazine caches in front of kmalloc's shared free lists
  /// (SLUB-style). Off by default: the single-allocator configuration is
  /// what the paper's experiments model.
  bool kmalloc_per_cpu_cache = false;
  std::uint32_t sched_quantum = 32;
  /// Base of the vmalloc virtual area and its size in pages.
  vm::VAddr vmalloc_base = 0xFFFF800000000000ull;
  std::size_t vmalloc_pages = 1 << 15;
};

/// A user process: one task plus its file-descriptor table.
struct Process {
  explicit Process(sched::Task& t) : task(t) {}
  sched::Task& task;
  fs::FdTable fds;
};

/// Packed wire format for sys_readdir (getdents): header + name bytes.
struct DirentHdr {
  std::uint64_t ino;
  std::uint8_t type;
  std::uint8_t namelen;
} __attribute__((packed));

/// Where a syscall handler's buffer and path arguments point. The calling
/// vehicle passes it; the handlers never look at it themselves, only the
/// path-fetch and buffer helpers in kernel.cpp do.
///  - kUser: user memory, reached through copy_{from,to}_user with their
///    charges, copy-byte counts and kfail sites (classic, consolidated
///    and ring calls).
///  - kKernel: memory the kernel may touch directly -- a Cosy shared
///    buffer or a NUL-terminated kernel path. Handlers read and write it
///    in place: no copy, no copy charge, no copy-byte count. An
///    out-of-range buffer arrives as nullptr.
enum class BufMode : std::uint8_t { kUser, kKernel };

/// One caller buffer of `n` bytes, as a handler sees it. kUser stages the
/// bytes in a kernel bounce buffer and moves them with copy_{from,to}_user;
/// kKernel hands out the caller's memory itself, so moving bytes between
/// it and data() costs nothing. With Kernel::fetch_path, the only place
/// the copy-or-share decision is made: every table handler (file and
/// net) moves its buffers through here and never branches on the mode.
class CallerBuf {
 public:
  CallerBuf(Boundary& b, sched::Task& t, BufMode m, std::uint64_t buf,
            std::size_t n)
      : b_(b), t_(t), shared_(m == BufMode::kKernel),
        buf_(reinterpret_cast<std::byte*>(static_cast<std::uintptr_t>(buf))),
        n_(n) {}

  /// Kernel-side bytes for the handler to fill or consume. The kUser
  /// bounce buffer is not zeroed: in() or the handler overwrites it, and
  /// out() copies only the bytes the handler wrote.
  std::byte* data() {
    if (shared_) return buf_;
    if (!bounce_) bounce_ = std::make_unique_for_overwrite<std::byte[]>(n_);
    return bounce_.get();
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
  std::unique_ptr<std::byte[]> bounce_;
};

/// Wire format for sys_readdirplus: stat + header + name bytes.
struct DirentPlusHdr {
  fs::StatBuf st;
  std::uint8_t namelen;
};

/// Live sup::Supervisors in this process, counted by their constructor
/// and destructor as a report for bench headers. Each supervisor observes
/// its own Kernel through a subscription; the Scope never reads this.
inline std::atomic<int> g_live_supervisors{0};
[[nodiscard]] inline bool sup_gateway_armed() {
  return g_live_supervisors.load(std::memory_order_relaxed) != 0;
}

class Kernel {
 public:
  explicit Kernel(fs::FileSystem& rootfs, KernelConfig cfg = KernelConfig{});
  ~Kernel();  // defined in kernel.cpp where ProcFs is complete

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Create a process (and its scheduler task). Thread-safe; processes
  /// are normally spawned before parallel dispatch starts.
  Process& spawn(std::string name);

  // --- subsystem access ----------------------------------------------------
  [[nodiscard]] fs::Vfs& vfs() { return vfs_; }
  [[nodiscard]] Boundary& boundary() { return boundary_; }
  [[nodiscard]] Audit& audit() { return audit_; }
  [[nodiscard]] base::WorkEngine& engine() { return engine_; }
  [[nodiscard]] sched::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] vm::PhysMem& phys() { return phys_; }
  [[nodiscard]] vm::AddressSpace& kernel_as() { return kernel_as_; }
  [[nodiscard]] mm::Kmalloc& kmalloc() { return kmalloc_; }
  [[nodiscard]] mm::Vmalloc& vmalloc() { return vmalloc_; }
  /// This Kernel's kdl: deadlines, cancellation and admission (dl/dl.hpp).
  [[nodiscard]] dl::Kdl& dl() { return dl_; }
  /// Wall-ns latency of every `nr` call this Kernel retired. Always on:
  /// each Scope records its call here (/proc/trace/hist/syscall,
  /// usk_syscall_latency_ns).
  [[nodiscard]] trace::HistogramSnapshot syscall_latency(Sys nr) const {
    return syscall_lat_[static_cast<std::size_t>(nr) % syscall_lat_.size()]
        .snapshot();
  }

  /// What a park ended with, when it did not fail.
  enum class Parked : std::uint8_t {
    kWoken,         ///< woken, maybe spuriously: re-check the predicate
    kUserDeadline,  ///< the caller's own deadline passed (not an error)
  };
  /// The one deadline-aware park for every blocking vehicle (socket
  /// recv/accept, epoll_wait, ring_enter). Parks the current task on `wq`
  /// until a wake newer than `tok`, a kill, a cancel, or the earlier of
  /// `user` (the caller's own timeout; nullptr = none) and the current
  /// DeadlineScope's deadline. The task schedules out, so the watchdog
  /// runs at every park. Errors: EINTR (killed), ECANCELED (cancel
  /// pending; ticks park_canceled), ETIMEDOUT (the request deadline is
  /// the binding one and has passed -- already before the park, too;
  /// ticks park_expired).
  Result<Parked> park(sched::WaitQueue& wq, sched::WaitQueue::Token tok,
                      const sched::WaitQueue::Deadline* user = nullptr);

  /// Create (once) a kernel-backed ProcFs -- see uk/kproc.hpp for the
  /// file tree -- make the /proc directory on the root filesystem, and
  /// mount it there. Idempotent; returns the filesystem so callers can
  /// register extra entries.
  fs::ProcFs& mount_procfs();

  /// Hook suitable for fs::MemFs::set_cost_hook: executes the units on the
  /// kernel work engine and charges them to the current task's kernel time.
  [[nodiscard]] std::function<void(std::uint64_t)> charge_hook() {
    return [this](std::uint64_t units) {
      engine_.alu(units);
      if (sched::Task* t = sched_.current()) t->charge_kernel(units);
    };
  }

  /// Observers of every syscall this Kernel retires: each Scope epilogue
  /// hands its SyscallRecord to every subscriber, lock-free. Both calls
  /// are safe while other threads dispatch, in any lifetime order;
  /// subscribing twice is a no-op, and unsubscribe returns once no thread
  /// is still inside the subscriber's on_syscall.
  void subscribe(SyscallSubscriber& s);
  void unsubscribe(SyscallSubscriber& s);
  /// The one load every Scope epilogue makes (all it pays with none).
  [[nodiscard]] bool has_subscribers() const {
    return armed_.load(std::memory_order_relaxed) != 0;
  }
  static constexpr std::size_t kMaxSubscribers = 16;

  /// RAII syscall prologue/epilogue: one crossing, one SyscallRecord for
  /// the accounting and the subscribers. Built by syscall(), the ring and
  /// Cosy entry points.
  class Scope {
   public:
    Scope(Kernel& k, Process& p, Sys nr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Record the result; returns it for `return scope.done(x);` chains.
    SysRet done(SysRet ret) {
      ret_ = ret;
      return ret;
    }
    SysRet fail(Errno e) { return done(sysret_err(e)); }

    /// kdl gateway gate. The constructor evaluates the dispatching
    /// request's deadline/cancel state once at entry through this
    /// Kernel's Kdl::fail_fast -- the Kernel's own kdl, so arming kdl on
    /// another Kernel never gates this one; disarmed, it is one relaxed
    /// load of this Kernel's flag. A non-zero return is the recorded
    /// failure (-ECANCELED / -ETIMEDOUT) and the handler must not run.
    /// Usage: `if (SysRet g = scope.gate(); g != 0) return g;`.
    [[nodiscard]] SysRet gate() {
      return gate_err_ == Errno::kOk ? 0 : done(sysret_err(gate_err_));
    }

   private:
    Kernel& k_;
    Process& p_;
    Sys nr_;
    Errno gate_err_ = Errno::kOk;
    SysRet ret_ = 0;
    std::uint64_t in0_, out0_;
    std::uint64_t kunits0_;  ///< kernel units at entry
    std::uint64_t cycles0_;  ///< base::cycles() at entry
  };

  // --- the syscall gateway -----------------------------------------------------
  /// Every call funnels through syscall() -- ONE place owns the Scope
  /// (crossing, audit, latency histogram), one numbered table routes to
  /// handlers, unknown numbers get ENOSYS. The typed sys_* wrappers (here and
  /// net::Net's) are the "userlib-facing" ABI and just pack arguments.
  using SysArgs = uk::SysArgs;

  /// Pack a user pointer / a signed integer into an argument register.
  static std::uint64_t uarg(const void* p) {
    return reinterpret_cast<std::uint64_t>(p);
  }
  static std::uint64_t iarg(std::int64_t v) {
    return static_cast<std::uint64_t>(v);
  }

  SysRet syscall(Process& p, Sys nr, const SysArgs& a = SysArgs{});

  /// Dispatch a table handler WITHOUT constructing a Scope: no boundary
  /// crossing, no audit record -- the caller's enclosing Scope owns both.
  /// This is how the ring, Cosy compounds and consolidated calls execute
  /// N syscalls for the cost of one crossing, with the classic calls'
  /// exact semantics. `mode` says where the buffer and path arguments
  /// point (see BufMode). Unknown numbers, and handlers that own their
  /// crossing, return ENOSYS.
  SysRet dispatch_nested(Process& p, Sys nr, const SysArgs& a = SysArgs{},
                         BufMode mode = BufMode::kUser);

  /// The fd ledger of one nested invocation: a Cosy compound, a ring
  /// chain, a consolidated call's steps. The invocation makes its calls
  /// through call() (nested, under its own crossing) or syscall() (a full
  /// syscall: the ring's quarantine fallback). By each callee's signature
  /// the ledger records the descriptor a call produces and drops the one
  /// a call releases, so it always holds exactly the fds the invocation
  /// opened and still owns. rollback() is the one abort path: an aborted
  /// invocation never leaks a descriptor its caller has not learned.
  /// Ledgers nest on the calling thread: one that ends without rollback
  /// hands what it holds to the enclosing ledger (accept_recv's connection,
  /// returned through an out slot, is then counted and rolled back too).
  class FdLedger {
   public:
    FdLedger(Kernel& k, Process& p);
    ~FdLedger();
    FdLedger(const FdLedger&) = delete;
    FdLedger& operator=(const FdLedger&) = delete;

    /// dispatch_nested(), recording the result under `tag`.
    SysRet call(Sys nr, const SysArgs& a, BufMode m = BufMode::kUser,
                std::size_t tag = 0) {
      tag_ = tag;
      return note(nr, a, k_.dispatch_nested(p_, nr, a, m));
    }
    /// A full syscall (one crossing), recording the result under `tag`.
    SysRet syscall(Sys nr, const SysArgs& a, std::size_t tag = 0) {
      tag_ = tag;
      return note(nr, a, k_.syscall(p_, nr, a));
    }
    /// Descriptors held now.
    [[nodiscard]] std::size_t live() const { return held_.size(); }
    /// The descriptor most recently produced, while it is still held;
    /// -1 once it is closed (or before any call produced one).
    [[nodiscard]] int latest() const { return latest_; }
    /// Close every descriptor still held -- nested, or through the full
    /// gateway when `classic` -- and return the tags of the calls whose
    /// descriptors were closed, in the order they were produced.
    std::vector<std::size_t> rollback(bool classic = false);

   private:
    SysRet note(Sys nr, const SysArgs& a, SysRet ret);
    void hold(int fd);

    struct Held {
      int fd;
      std::size_t tag;
    };
    Kernel& k_;
    Process& p_;
    FdLedger* const outer_;  ///< the enclosing ledger on this thread
    std::size_t tag_ = 0;    ///< tag of the call in progress
    int latest_ = -1;
    std::vector<Held> held_;
  };

  // --- the numbered syscall table ---------------------------------------------
  /// A subsystem layered above uk (net::Net, ring::RingDev) fills its
  /// syscall numbers with member handlers `SysRet (T::*)(Process&, const
  /// SysArgs&, BufMode)` on `self`, the way the Kernel fills the file
  /// calls at construction. A slot that is already taken is left alone.
  /// A handler whose signature is not nestable (ring_setup, ring_enter)
  /// builds its own Scope: syscall() calls it bare and dispatch_nested()
  /// answers ENOSYS, because a quarantined ring_enter decomposes into one
  /// full syscall per op instead of paying one crossing up front. The
  /// registrant must outlive its registration window.
  template <auto H, class T>
  void register_syscall(Sys nr, T* self) {
    install(nr,
            [](void* ctx, Process& p, const SysArgs& a, BufMode m) -> SysRet {
              return (static_cast<T*>(ctx)->*H)(p, a, m);
            },
            self);
  }
  void unregister_syscall(Sys nr);

  // --- classic system calls (typed wrappers over syscall()) --------------------
  SysRet sys_open(Process& p, const char* upath, int flags,
                  std::uint32_t mode);
  SysRet sys_close(Process& p, int fd);
  /// dup(2): duplicate `fd` into the lowest free descriptor slot.
  SysRet sys_dup(Process& p, int fd);
  SysRet sys_read(Process& p, int fd, void* ubuf, std::size_t n);
  SysRet sys_write(Process& p, int fd, const void* ubuf, std::size_t n);
  SysRet sys_lseek(Process& p, int fd, std::int64_t off, int whence);
  SysRet sys_stat(Process& p, const char* upath, fs::StatBuf* ust);
  SysRet sys_fstat(Process& p, int fd, fs::StatBuf* ust);
  /// getdents-style: fills `ubuf` with packed DirentHdr+name records;
  /// returns bytes written, 0 at end of directory.
  SysRet sys_readdir(Process& p, int fd, void* ubuf, std::size_t n);
  SysRet sys_unlink(Process& p, const char* upath);
  SysRet sys_mkdir(Process& p, const char* upath, std::uint32_t mode);
  SysRet sys_rmdir(Process& p, const char* upath);
  SysRet sys_rename(Process& p, const char* ufrom, const char* uto);
  SysRet sys_truncate(Process& p, const char* upath, std::uint64_t size);
  SysRet sys_getpid(Process& p);
  SysRet sys_sync(Process& p);
  SysRet sys_fsync(Process& p, int fd);
  SysRet sys_fdatasync(Process& p, int fd);
  SysRet sys_link(Process& p, const char* ufrom, const char* uto);
  SysRet sys_chmod(Process& p, const char* upath, std::uint32_t mode);

  static constexpr std::size_t kMaxPath = 4096;
  static constexpr std::size_t kMaxIo = 1 << 20;

  /// Path fetch for every handler: with kUser, strncpy_from_user into
  /// `kpath` (kMaxPath bytes); with kKernel, the NUL-terminated kernel
  /// string is used in place. EFAULT for nullptr, ENAMETOOLONG at kMaxPath
  /// either way.
  Result<std::string_view> fetch_path(Process& p, BufMode m,
                                      std::uint64_t path, char* kpath);

 private:
  // --- numbered syscall table ------------------------------------------------
  // Handlers are Scope-free: they take the process, the packed args and
  // the buffer mode, and return a SysRet. syscall() wraps the call in a
  // Scope (crossing + audit); dispatch_nested() calls them bare so every
  // batching vehicle re-uses the exact same code with zero extra
  // crossings. One entry per number, read on the syscall hot path.
  using SysFn = SysRet (*)(void* ctx, Process& p, const SysArgs& a,
                           BufMode m);
  struct SysEntry {
    std::atomic<SysFn> fn{nullptr};
    std::atomic<void*> ctx{nullptr};
  };
  void install(Sys nr, SysFn fn, void* ctx);

  struct SubSlot {
    std::atomic<SyscallSubscriber*> sub{nullptr};
    std::atomic<std::uint32_t> active{0};  ///< threads in sub->on_syscall
  };
  /// The Scope epilogue's slow path: hand `r` to every live subscriber.
  void publish(const SyscallRecord& r);

  SysRet do_open(Process& p, const SysArgs& a, BufMode m);
  SysRet do_close(Process& p, const SysArgs& a, BufMode m);
  SysRet do_dup(Process& p, const SysArgs& a, BufMode m);
  SysRet do_read(Process& p, const SysArgs& a, BufMode m);
  SysRet do_write(Process& p, const SysArgs& a, BufMode m);
  SysRet do_lseek(Process& p, const SysArgs& a, BufMode m);
  SysRet do_stat(Process& p, const SysArgs& a, BufMode m);
  SysRet do_fstat(Process& p, const SysArgs& a, BufMode m);
  SysRet do_readdir(Process& p, const SysArgs& a, BufMode m);
  SysRet do_unlink(Process& p, const SysArgs& a, BufMode m);
  SysRet do_mkdir(Process& p, const SysArgs& a, BufMode m);
  SysRet do_rmdir(Process& p, const SysArgs& a, BufMode m);
  SysRet do_rename(Process& p, const SysArgs& a, BufMode m);
  SysRet do_truncate(Process& p, const SysArgs& a, BufMode m);
  SysRet do_getpid(Process& p, const SysArgs& a, BufMode m);
  SysRet do_sync(Process& p, const SysArgs& a, BufMode m);
  SysRet do_fsync(Process& p, const SysArgs& a, BufMode m);
  SysRet do_fdatasync(Process& p, const SysArgs& a, BufMode m);
  SysRet do_link(Process& p, const SysArgs& a, BufMode m);
  SysRet do_chmod(Process& p, const SysArgs& a, BufMode m);
  // Consolidated calls (§2.2): one crossing for a whole sequence.
  SysRet do_readdirplus(Process& p, const SysArgs& a, BufMode m);
  SysRet do_open_read_close(Process& p, const SysArgs& a, BufMode m);
  SysRet do_open_write_close(Process& p, const SysArgs& a, BufMode m);
  SysRet do_open_fstat(Process& p, const SysArgs& a, BufMode m);
  /// open(a0, flags, mode), [lseek to a3,] io(fd, a1, a2), close.
  SysRet open_io_close(Process& p, const SysArgs& a, BufMode m, Sys io,
                       int flags, std::uint32_t mode, bool seek);

  base::WorkEngine engine_;
  vm::PhysMem phys_;
  vm::AddressSpace kernel_as_;
  mm::Kmalloc kmalloc_;
  mm::Vmalloc vmalloc_;
  sched::Scheduler sched_;
  Boundary boundary_;
  Audit audit_;
  dl::Kdl dl_;
  fs::Vfs vfs_;
  std::array<SysEntry, static_cast<std::size_t>(Sys::kMaxSys)> table_{};
  std::array<trace::Histogram, static_cast<std::size_t>(Sys::kMaxSys)>
      syscall_lat_;
  std::atomic<std::uint32_t> armed_{0};  ///< bit i: subs_[i] is live
  std::array<SubSlot, kMaxSubscribers> subs_{};
  std::unique_ptr<fs::ProcFs> procfs_;  ///< created by mount_procfs()
  std::mutex mu_;  ///< guards procs_, procfs_ and subscription changes
  std::vector<std::unique_ptr<Process>> procs_;
};

}  // namespace usk::uk
