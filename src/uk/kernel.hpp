// The simulated kernel: boundary + scheduler + memory + VFS + syscalls.
//
// A Kernel is assembled around a caller-provided root FileSystem (so
// benchmarks can stack WrapFs/JournalFs/MemFs as the paper's experiments
// require). Classic system calls are implemented here; the consolidated
// calls (§2.2) live in src/consolidation and the compound executor (§2.3)
// in src/cosy, both built on the same Scope discipline so every call pays
// exactly one boundary crossing and its copies are accounted.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/work.hpp"
#include "fs/memfs.hpp"
#include "fs/vfs.hpp"
#include "mm/kmalloc.hpp"
#include "mm/vmalloc.hpp"
#include "sched/scheduler.hpp"
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

/// Wire format for sys_readdirplus: stat + header + name bytes.
struct DirentPlusHdr {
  fs::StatBuf st;
  std::uint8_t namelen;
};

// --- supervisor gateway hook --------------------------------------------------
// The extension supervisor (src/sup) watches every syscall from the Scope
// epilogue: the per-call kernel work units feed the rolling-window quotas
// of whatever extension invocation is bound to the calling thread. The
// layering runs uk <- sup, so sup registers a raw function here instead of
// the kernel naming it. Disarmed (no supervisor registered), the check is
// ONE relaxed load -- the same discipline as USK_TRACEPOINT and
// USK_FAIL_POINT, so an unsupervised kernel measures identically.
using SupGatewayFn = void (*)(void* ctx, Process& p, Sys nr, SysRet ret,
                              std::uint64_t kernel_units);

namespace supdetail {
inline std::atomic<bool> g_armed{false};
}  // namespace supdetail

/// Register (fn != nullptr) or clear (fn == nullptr) the gateway hook.
/// One registration at a time; the registrant must outlive its arming.
void set_sup_gateway(SupGatewayFn fn, void* ctx);

[[nodiscard]] inline bool sup_gateway_armed() {
  return supdetail::g_armed.load(std::memory_order_relaxed);
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

  /// RAII syscall prologue/epilogue: one crossing, audit record with the
  /// copy-byte deltas. Shared with the consolidation and Cosy modules.
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
    /// request's deadline/cancel state once at entry (one relaxed load
    /// when kdl is disarmed); a non-zero return is the recorded failure
    /// (-ECANCELED / -ETIMEDOUT) and the handler must not run. Usage:
    /// `if (SysRet g = scope.gate(); g != 0) return g;`.
    [[nodiscard]] SysRet gate() {
      return gate_err_ == Errno::kOk ? 0 : done(sysret_err(gate_err_));
    }

    [[nodiscard]] Kernel& kernel() { return k_; }
    [[nodiscard]] Process& process() { return p_; }

   private:
    Kernel& k_;
    Process& p_;
    Sys nr_;
    Errno gate_err_ = Errno::kOk;
    SysRet ret_ = 0;
    std::uint64_t in0_, out0_;
    std::uint64_t kunits0_;  ///< kernel units at entry (supervisor delta)
    std::chrono::steady_clock::time_point wall0_;
  };

  // --- the syscall gateway -----------------------------------------------------
  /// Register-file argument block, the simulated ABI: up to four u64s,
  /// pointers reinterpreted. Every classic call funnels through
  /// syscall() -- ONE place owns the Scope (crossing, audit, ktrace), one
  /// numbered table routes to handlers, unknown numbers get ENOSYS. The
  /// typed sys_* wrappers below are the "userlib-facing" ABI and just
  /// pack arguments.
  struct SysArgs {
    std::uint64_t a0;
    std::uint64_t a1;
    std::uint64_t a2;
    std::uint64_t a3;
  };

  /// Pack a user pointer into a syscall argument register.
  static std::uint64_t uarg(const void* p) {
    return reinterpret_cast<std::uint64_t>(p);
  }

  SysRet syscall(Process& p, Sys nr, const SysArgs& a = SysArgs{});

  // --- external syscall slots ---------------------------------------------------
  /// Subsystems layered above uk (net-like modules such as src/ring) can
  /// claim unused syscall numbers at runtime so their calls route through
  /// the same numbered gateway. An external handler owns its own Scope
  /// discipline -- exactly like net::Net's syscall family, which
  /// constructs Kernel::Scope directly -- because some of them (ring's
  /// quarantine fallback) must decompose into nested full syscalls
  /// instead of paying one crossing up front.
  using ExternalSysFn = SysRet (*)(void* ctx, Kernel& k, Process& p,
                                   const SysArgs& a);
  /// Claim `nr` (must not collide with a table handler). Passing
  /// fn == nullptr releases the slot. The registrant must outlive its
  /// registration window.
  void register_syscall(Sys nr, ExternalSysFn fn, void* ctx);
  void unregister_syscall(Sys nr) { register_syscall(nr, nullptr, nullptr); }

  /// Dispatch a table handler WITHOUT constructing a Scope: no boundary
  /// crossing, no audit record -- the caller's enclosing Scope owns both.
  /// This is how the ring, Cosy compounds and consolidated calls execute
  /// N syscalls for the cost of one crossing, with the classic calls'
  /// exact semantics. `mode` says where the buffer and path arguments
  /// point (see BufMode). Unknown numbers return ENOSYS; externally
  /// registered numbers are NOT reachable here (an external handler
  /// expects to manage its own crossing).
  SysRet dispatch_nested(Process& p, Sys nr, const SysArgs& a = SysArgs{},
                         BufMode mode = BufMode::kUser);

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

  /// Path fetch for every handler (and readdirplus): with kUser,
  /// strncpy_from_user into `kpath` (kMaxPath bytes); with kKernel, the
  /// NUL-terminated kernel string is used in place. EFAULT for nullptr,
  /// ENAMETOOLONG at kMaxPath either way.
  Result<std::string_view> fetch_path(Process& p, BufMode m,
                                      std::uint64_t path, char* kpath);

 private:
  // --- numbered syscall table ------------------------------------------------
  // Handlers are Scope-free: they take the process, the packed args and
  // the buffer mode, and return a SysRet. syscall() wraps the call in a
  // Scope (crossing + audit); dispatch_nested() calls them bare so every
  // batching vehicle re-uses the exact same code with zero extra
  // crossings.
  using SysHandler = SysRet (Kernel::*)(Process&, const SysArgs&, BufMode);
  using HandlerTable =
      std::array<SysHandler, static_cast<std::size_t>(Sys::kMaxSys)>;
  static const HandlerTable& handlers();

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

  /// One runtime-registered slot; fn/ctx are read on the syscall hot path
  /// (two acquire loads only when the static table misses).
  struct ExternalSys {
    std::atomic<ExternalSysFn> fn{nullptr};
    std::atomic<void*> ctx{nullptr};
  };

  base::WorkEngine engine_;
  vm::PhysMem phys_;
  vm::AddressSpace kernel_as_;
  mm::Kmalloc kmalloc_;
  mm::Vmalloc vmalloc_;
  sched::Scheduler sched_;
  Boundary boundary_;
  Audit audit_;
  fs::Vfs vfs_;
  std::array<ExternalSys, static_cast<std::size_t>(Sys::kMaxSys)> external_{};
  std::unique_ptr<fs::ProcFs> procfs_;  ///< created by mount_procfs()
  std::mutex spawn_mu_;
  std::vector<std::unique_ptr<Process>> procs_;
};

}  // namespace usk::uk
