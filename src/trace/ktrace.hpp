// ktrace: kernel-wide tracing with per-CPU lock-free buffers.
//
// Design goals, in order:
//   1. Near-zero disabled cost. A tracepoint that is off is one relaxed
//      atomic load of a process-global flag and a predicted-not-taken
//      branch -- nothing else, so instrumented hot paths (the boundary,
//      the dcache) measure the same as uninstrumented ones.
//   2. No lost events while enabled. Each CPU appends to its own
//      base::MpmcRing, so emitters never contend on a shared cache line;
//      a global sequence counter lets the drain path merge the per-CPU
//      streams back into one ordered timeline at a quiescent point,
//      exactly like the audit subsystem's per-CPU buffers.
//   3. Aggregation in the kernel. Log2 latency histograms (eBPF-style)
//      accumulate per-operation latencies with one relaxed increment, so
//      percentile observability never needs the event stream at all.
//      (The always-on per-syscall histograms are per-Kernel:
//      uk::Kernel::syscall_latency.)
//
// The simulated machine has one tracer (like one ftrace instance); every
// Kernel in the process shares it. Tests call reset() between scenarios.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/mpmc_ring.hpp"
#include "base/percpu.hpp"
#include "trace/histogram.hpp"

namespace usk::trace {

/// One traced event. 48 bytes, fixed size, no heap -- small enough that a
/// 4K-slot per-CPU ring costs ~200 KiB and large enough for two payload
/// words (fd, size, syscall nr, return value...).
struct TraceEvent {
  std::uint64_t seq = 0;    ///< global order (merge key)
  std::uint64_t ts_ns = 0;  ///< steady-clock ns since tracer start
  std::uint32_t pid = 0;    ///< task that emitted (0 = none/unknown)
  std::uint16_t site = 0;   ///< tracepoint site id (see Ktrace::sites)
  std::uint16_t cpu = 0;    ///< emitting CPU
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

namespace detail {
/// THE disabled-cost hot path: one process-global flag, read relaxed.
inline std::atomic<bool> g_enabled{false};
/// Task the calling CPU is currently running (set by the syscall
/// prologue); stamps events so the merged stream can be grouped per task.
inline thread_local std::uint32_t g_current_pid = 0;
}  // namespace detail

[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_current_pid(std::uint32_t pid) {
  detail::g_current_pid = pid;
}

/// A registered tracepoint site (static strings from the macro).
struct SiteInfo {
  const char* subsys = nullptr;
  const char* name = nullptr;
  std::uint64_t hits = 0;
};

/// A named operation histogram (vfs:open, dcache:lookup, ...).
struct OpHistInfo {
  const char* subsys = nullptr;
  const char* name = nullptr;
  HistogramSnapshot hist;
};

class Ktrace {
 public:
  static constexpr std::size_t kMaxSites = 256;
  static constexpr std::size_t kMaxOpHists = 128;
  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;

  /// The process-wide tracer.
  static Ktrace& instance();

  // --- control --------------------------------------------------------------
  void enable() { detail::g_enabled.store(true, std::memory_order_relaxed); }
  void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool is_enabled() const { return enabled(); }

  /// Per-CPU ring capacity (power of two) for subsequently allocated
  /// rings. Call before enabling; live rings keep their size.
  void configure(std::size_t per_cpu_capacity);

  /// Drop buffered events and zero counters + histograms. Quiescent-point
  /// operation: callers stop emitters first (tests, bench setup).
  void reset();

  // --- tracepoint sites ------------------------------------------------------
  /// Intern (subsys, name) -> site id. Called once per site through the
  /// macro's function-local static; both strings must be literals.
  std::uint16_t register_site(const char* subsys, const char* name);

  /// Registered sites with their hit counts, id order.
  [[nodiscard]] std::vector<SiteInfo> sites() const;

  [[nodiscard]] const char* site_subsys(std::uint16_t site) const;
  [[nodiscard]] const char* site_name(std::uint16_t site) const;

  // --- emit (enabled path) ----------------------------------------------------
  void emit(std::uint16_t site, std::uint64_t a0 = 0, std::uint64_t a1 = 0);

  // --- drain / accounting ----------------------------------------------------
  /// Pop every CPU's buffered events and merge them into one stream
  /// ordered by sequence number. Quiescent-point operation (like the
  /// audit-log drain): run after emitters have stopped or at a barrier.
  [[nodiscard]] std::vector<TraceEvent> drain();

  /// Events emitted (merged per-CPU counters) / dropped on full rings
  /// since the last reset. drained == emitted - dropped, always.
  [[nodiscard]] std::uint64_t emitted() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Per-CPU ring accounting for /proc/trace/stats: one row per CPU that
  /// has ever emitted. Quiescent-point read like every PerCpu merge.
  struct CpuStats {
    std::size_t cpu = 0;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    std::size_t capacity = 0;
  };
  [[nodiscard]] std::vector<CpuStats> per_cpu_stats() const;

  // --- histograms ------------------------------------------------------------
  /// Intern a named operation histogram (stable reference; call through a
  /// function-local static). Recording into it is the caller's business
  /// and normally gated on enabled() because it needs clock reads.
  Histogram& op_hist(const char* subsys, const char* name);
  [[nodiscard]] std::vector<OpHistInfo> op_hists() const;

  /// Nanoseconds since tracer construction (the event timestamp base).
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  Ktrace() : epoch_(std::chrono::steady_clock::now()) {}

  using Ring = base::MpmcRing<TraceEvent>;

  struct SiteSlot {
    const char* subsys = nullptr;
    const char* name = nullptr;
    std::atomic<std::uint64_t> hits{0};
  };
  struct OpHistSlot {
    const char* subsys = nullptr;
    const char* name = nullptr;
    std::unique_ptr<Histogram> hist;
  };
  /// Per-CPU emit state: the ring is allocated on the CPU's first emit so
  /// idle slots cost nothing; `emitted` is owner-thread-only (merged at
  /// quiescent points, like every other PerCpu counter).
  struct CpuBuf {
    std::unique_ptr<Ring> ring;
    std::uint64_t emitted = 0;
    bool drop_warned = false;  ///< first-drop warning fired for this CPU
  };

  const std::chrono::steady_clock::time_point epoch_;

  // Site/ophist registries: fixed arrays + a published count, so emit()
  // indexes without locks while registration appends under the mutex.
  mutable std::mutex reg_mu_;
  std::array<SiteSlot, kMaxSites> sites_{};
  std::atomic<std::uint16_t> site_count_{0};
  std::array<OpHistSlot, kMaxOpHists> op_hists_{};
  std::atomic<std::uint16_t> op_hist_count_{0};

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
  base::PerCpu<CpuBuf> cpus_;
};

/// Shorthand for the process-wide tracer.
[[nodiscard]] inline Ktrace& ktrace() { return Ktrace::instance(); }

}  // namespace usk::trace
