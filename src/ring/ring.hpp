// kring: async batched syscall rings, the third crossing-elimination
// vehicle (after consolidated calls and Cosy compounds).
//
// A ring is a pair of lock-free queues in shared (simulated
// user-visible) memory -- a submission queue of Sqe records and a
// completion queue of Cqe records -- plus a byte arena the entries
// point into. The user side writes SQEs and reads CQEs with plain
// loads and stores (user_prepare / user_reap: zero crossings, the
// mmap'd-rings discipline of io_uring); ONE ring_enter syscall drains
// the whole backlog kernel-side: each SQE names a (Sys, SysArgs) pair
// and runs the kernel's numbered syscall handler (file, net or
// consolidated) via Kernel::dispatch_nested, so N operations cost one
// boundary crossing.
//
// Linked ops: an SQE with kSqeLink chains into the next SQE. A chain
// executes left to right with cancel-on-error semantics -- the failing
// op's CQE carries the real errno, every later op completes with
// -ECANCELED, and any fd the chain opened is closed through the kernel's
// fd ledger and its CQE rewritten to -ECANCELED (fd rollback), so a
// failed chain never leaks descriptors into user hands. kFdChain in an
// SQE's descriptor register resolves to the chain's latest fd-producing
// result, which is what lets accept->recv and open->read->send->close
// subsume accept_recv and sendfile generically.
//
// Descriptors: a ring fd is an anonymous inode in RingDev's fs::AnonFs,
// the fd-object table sockets and epoll instances use too. dup(2) holds
// the ring open and the last close(2) runs close_ring; read(2)/write(2)
// on a ring fd are EINVAL, fstat(2) reports its reapable completions.
//
// Supervision: a ring bound to a ksup extension runs every enter through
// Supervisor::invoke (fuel charged per SQE, staging memory per enter).
// A quarantined ring degrades to classic syscall-at-a-time
// decomposition: the same chains, executed through the full gateway
// with one crossing per op -- correct, slow, and safe, the same
// fallback every other vehicle takes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/mpmc_ring.hpp"
#include "fs/anonfs.hpp"
#include "fs/procfs.hpp"
#include "uk/kernel.hpp"

namespace usk::fs {
class ProcFs;
}
namespace usk::sup {
class Supervisor;
class InvocationGuard;
}

namespace usk::ring {

/// SQE flag: this op links into the next SQE (same chain).
inline constexpr std::uint8_t kSqeLink = 0x1;

/// Sentinel for any descriptor register (the register value of fd -2):
/// resolve to the fd produced by the most recent fd-producing call (open,
/// accept, socket, dup, accept_recv, ...) earlier in this chain, while
/// the chain has not closed it.
inline constexpr std::uint64_t kFdChain = static_cast<std::uint64_t>(-2);

/// Submission queue entry: one syscall by number, the ring ABI's
/// "register file". Path and buffer registers hold OFFSETS into the
/// ring's shared byte arena, never raw pointers: the engine translates
/// them by the call's uk::sys_sig() signature and bounds-checks them like
/// access_ok before dispatch. Sqe{} (nr 0) is a no-op.
struct Sqe {
  std::uint64_t user_data = 0;  ///< echoed in the CQE, engine-opaque
  uk::Sys nr{};
  std::uint8_t flags = 0;
  uk::SysArgs args;
};

/// Completion queue entry: the op's SysRet (negative = -errno).
struct Cqe {
  std::uint64_t user_data = 0;
  SysRet res = 0;
};

/// Longest permitted chain. The drain engine reserves this much CQ
/// space before popping a chain, so a chain's completions can never be
/// lost to a full CQ (backpressure instead of overflow).
inline constexpr std::size_t kMaxChain = 8;

/// Per-ring counters (atomics: the drain and the proc renderer race).
struct RingCounters {
  std::atomic<std::uint64_t> enters{0};           ///< kernel-path ring_enter
  std::atomic<std::uint64_t> enters_fallback{0};  ///< quarantined decompositions
  std::atomic<std::uint64_t> sqes{0};             ///< SQEs drained
  std::atomic<std::uint64_t> chains{0};
  std::atomic<std::uint64_t> chains_failed{0};    ///< cancel-on-error fired
  std::atomic<std::uint64_t> chains_malformed{0}; ///< dangling/overlong link
  std::atomic<std::uint64_t> cqes_posted{0};
  std::atomic<std::uint64_t> cqes_canceled{0};    ///< -ECANCELED completions
  std::atomic<std::uint64_t> fds_rolled_back{0};
  std::atomic<std::uint64_t> cq_backpressure{0};  ///< drain stalls on CQ space
  std::atomic<std::uint64_t> sqes_discarded{0};   ///< canceled by close
  std::atomic<std::uint64_t> sqe_corrupt_hard{0};
  std::atomic<std::uint64_t> sqe_corrupt_transient{0};
  std::atomic<std::uint64_t> cqe_drop_hard{0};
  std::atomic<std::uint64_t> cqe_drop_transient{0};
};

/// Plain snapshot of RingCounters (proc rendering, tests, aggregation).
struct RingStats {
  std::uint64_t enters = 0;
  std::uint64_t enters_fallback = 0;
  std::uint64_t sqes = 0;
  std::uint64_t chains = 0;
  std::uint64_t chains_failed = 0;
  std::uint64_t chains_malformed = 0;
  std::uint64_t cqes_posted = 0;
  std::uint64_t cqes_canceled = 0;
  std::uint64_t fds_rolled_back = 0;
  std::uint64_t cq_backpressure = 0;
  std::uint64_t sqes_discarded = 0;
  std::uint64_t sqe_corrupt_hard = 0;
  std::uint64_t sqe_corrupt_transient = 0;
  std::uint64_t cqe_drop_hard = 0;
  std::uint64_t cqe_drop_transient = 0;

  RingStats& operator+=(const RingStats& o);
};

/// Every RingStats counter with its /proc/ring/stats name, in file order.
inline constexpr std::pair<const char*, std::uint64_t RingStats::*>
    kRingCounters[] = {
        {"enters", &RingStats::enters},
        {"enters_fallback", &RingStats::enters_fallback},
        {"sqes", &RingStats::sqes},
        {"chains", &RingStats::chains},
        {"chains_failed", &RingStats::chains_failed},
        {"chains_malformed", &RingStats::chains_malformed},
        {"cqes_posted", &RingStats::cqes_posted},
        {"cqes_canceled", &RingStats::cqes_canceled},
        {"fds_rolled_back", &RingStats::fds_rolled_back},
        {"cq_backpressure", &RingStats::cq_backpressure},
        {"sqes_discarded", &RingStats::sqes_discarded},
        {"sqe_corrupt_hard", &RingStats::sqe_corrupt_hard},
        {"sqe_corrupt_transient", &RingStats::sqe_corrupt_transient},
        {"cqe_drop_hard", &RingStats::cqe_drop_hard},
        {"cqe_drop_transient", &RingStats::cqe_drop_transient},
};

class RingDev;

/// One SQ/CQ pair plus its shared byte arena. The object IS the
/// "mapping": user code holding the shared_ptr from RingDev::user_map
/// accesses the queues directly (no crossings), the kernel drains them
/// in ring_enter. Queue memory outlives the ring fd, exactly like a
/// real mmap outlives close(2).
class Ring {
 public:
  Ring(fs::InodeNum ino, std::uint32_t owner_pid, std::size_t sq_entries,
       std::size_t data_bytes)
      : ino_(ino),
        owner_pid_(owner_pid),
        sq_(sq_entries),
        cq_(sq_entries * 2),
        data_(data_bytes),
        max_chain_(std::min(kMaxChain, sq_entries)) {}

  // --- user side (shared-memory access, zero crossings) -------------------
  /// Queue one SQE; false when the SQ is full (backpressure -- the
  /// caller must ring_enter to drain before submitting more).
  bool user_prepare(const Sqe& e);
  /// Reap up to `max` completions.
  std::size_t user_reap(Cqe* out, std::size_t max) {
    return cq_.pop_bulk(out, max);
  }
  /// Pointer into the shared arena, or nullptr if [addr, addr+len)
  /// escapes it. The same check the engine performs before dispatch.
  [[nodiscard]] std::byte* user_data(std::uint64_t addr, std::size_t len) {
    if (addr > data_.size() || len > data_.size() - addr) return nullptr;
    return data_.data() + addr;
  }

  [[nodiscard]] fs::InodeNum ino() const { return ino_; }
  [[nodiscard]] std::uint32_t owner_pid() const { return owner_pid_; }
  [[nodiscard]] std::size_t sq_capacity() const { return sq_.capacity(); }
  [[nodiscard]] std::size_t cq_capacity() const { return cq_.capacity(); }
  [[nodiscard]] std::size_t data_bytes() const { return data_.size(); }
  [[nodiscard]] std::size_t max_chain() const { return max_chain_; }
  [[nodiscard]] std::size_t cq_size() const {
    std::uint64_t pushed = cq_.pushed();
    std::uint64_t popped = cq_.popped();
    return pushed > popped ? static_cast<std::size_t>(pushed - popped) : 0;
  }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] RingStats stats() const;

 private:
  friend class RingDev;

  [[nodiscard]] std::size_t cq_free() const {
    std::size_t used = cq_size();
    return used >= cq_.capacity() ? 0 : cq_.capacity() - used;
  }

  fs::InodeNum ino_;
  std::uint32_t owner_pid_;
  base::MpmcRing<Sqe> sq_;
  base::MpmcRing<Cqe> cq_;
  std::vector<std::byte> data_;
  std::size_t max_chain_;
  std::atomic<bool> closed_{false};

  // Supervision binding (set once by RingDev::supervise; sup_ last so a
  // racing reader pairing sup_ with ext_ sees both).
  std::atomic<sup::Supervisor*> sup_{nullptr};
  std::atomic<int> ext_{-1};

  std::mutex drain_mu_;  ///< single drainer at a time
  /// Parked ring_enter waiters. Doorbells (user_prepare), completion
  /// posts, and close wake it; the waiter's token is taken before the
  /// drain, so none of those events can slip between drain and park.
  sched::WaitQueue wq_;

  RingCounters n_;
};

/// The ring device: setup/enter syscalls, the kernel-side submission
/// engine, and the /proc/ring surface. Registers its syscall numbers
/// with the numbered gateway at construction, releases them at
/// destruction. Neither is nestable (they own their crossing, see
/// Kernel::register_syscall), so no SQE can re-enter a ring. Net SQEs run
/// the handlers net::Net registered with the Kernel.
class RingDev {
 public:
  static constexpr std::size_t kMaxSqEntries = 4096;
  static constexpr std::size_t kMaxDataBytes = 1 << 20;

  explicit RingDev(uk::Kernel& k);
  ~RingDev();
  RingDev(const RingDev&) = delete;
  RingDev& operator=(const RingDev&) = delete;

  // --- syscalls (also reachable as Sys::kRingSetup / kRingEnter) ----------
  /// Create a ring: `entries` SQ slots (rounded up to a power of two,
  /// CQ gets twice that) over a `data_bytes` arena. Returns the ring fd.
  SysRet sys_ring_setup(uk::Process& p, std::uint32_t entries,
                        std::uint32_t data_bytes);
  /// Drain up to `to_submit` SQEs (0 = none, kDrainAll = everything
  /// queued), then wait -- sched-parked, watchdog-killable, no polling
  /// -- until the CQ holds at least `min_complete` entries or
  /// `timeout_ms` expires (0 = never wait, negative = wait forever).
  /// Returns the number of CQEs posted by this call.
  SysRet sys_ring_enter(uk::Process& p, int ringfd, std::uint32_t to_submit,
                        std::uint32_t min_complete, int timeout_ms);

  static constexpr std::uint32_t kDrainAll = 0xFFFFFFFFu;

  /// The mmap analogue: hand the caller direct (shared-memory) access
  /// to an owned ring. Zero crossings; validity checked like any fd.
  Result<std::shared_ptr<Ring>> user_map(uk::Process& p, int ringfd);

  /// Bind the ring to a supervisor extension (Vehicle::kRing): every
  /// subsequent ring_enter routes through the breaker.
  Result<void> supervise(uk::Process& p, int ringfd, sup::Supervisor& s,
                         int ext_id);

  /// Register /proc/ring/{rings,stats} with `pfs` until this RingDev is
  /// destroyed (EEXIST: another RingDev holds them). Lives here rather
  /// than uk/kproc.cpp because uk cannot depend on ring.
  Errno register_proc(fs::ProcFs& pfs);

  [[nodiscard]] std::string format_rings() const;
  [[nodiscard]] std::string format_stats() const;
  /// Aggregate over live and already-closed rings.
  [[nodiscard]] RingStats total_stats() const;
  [[nodiscard]] std::size_t live_rings() const { return rings_.size(); }

 private:
  SysRet handle_setup(uk::Process& p, const uk::Kernel::SysArgs& a,
                      uk::BufMode m);
  SysRet handle_enter(uk::Process& p, const uk::Kernel::SysArgs& a,
                      uk::BufMode m);

  Result<std::shared_ptr<Ring>> ring_of(uk::Process& p, int fd);
  void charge(std::uint64_t units);

  /// Drain + parked wait; `classic` decomposes through the full gateway
  /// (one crossing per op) instead of dispatch_nested. Returns CQEs
  /// posted; `violation` reports drain-level misbehavior (corrupt SQE,
  /// dropped completion, quota) for the supervisor.
  SysRet do_enter(uk::Process& p, Ring& r, std::uint32_t to_submit,
                  std::uint32_t min_complete, int timeout_ms, bool classic,
                  sup::InvocationGuard* guard, Errno* violation);
  /// One drain pass under r.drain_mu_. Returns SQEs consumed; posted
  /// CQEs are added to *posted. Sets *stop when draining must end
  /// (quota trip or CQ backpressure).
  std::size_t drain(uk::Process& p, Ring& r, std::size_t budget, bool classic,
                    sup::InvocationGuard* guard, Errno* violation,
                    std::size_t* posted, bool* stop);
  void exec_chain(uk::Process& p, Ring& r, const std::vector<Sqe>& chain,
                  bool classic, Errno* violation, std::vector<Cqe>& out);
  /// One SQE through `ledger`, its registers translated by signature.
  SysRet exec_sqe(Ring& r, const Sqe& e, bool classic,
                  uk::FdLedger& ledger, std::size_t tag);
  std::size_t post_cqes(Ring& r, std::vector<Cqe>& cqes, bool classic,
                        Errno* violation);
  /// A ring's last close: cancel its queued SQEs, fold its counters into
  /// retired_ and unregister it.
  void close_ring(const std::shared_ptr<Ring>& r);

  uk::Kernel& k_;
  /// Ring fds: fstat reports reapable completions, read/write are EINVAL.
  fs::AnonFs<Ring> rings_;
  /// Guards retired_. Held across a closing ring's unregister and across
  /// total_stats' table snapshot, so every ring is counted exactly once.
  mutable std::mutex retired_mu_;
  RingStats retired_;  ///< stats of closed rings
  fs::ProcFs::Registration proc_;  ///< last: leaves before the state
};

}  // namespace usk::ring
