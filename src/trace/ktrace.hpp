// ktrace: per-Kernel tracing with per-CPU lock-free buffers.
//
// Design goals, in order:
//   1. Near-zero disabled cost. A tracepoint that is off is one load of
//      the thread's base::Current::ktrace and a predicted-not-taken
//      branch -- nothing else, so instrumented hot paths (the boundary,
//      the dcache) measure the same as uninstrumented ones.
//   2. No lost events while enabled. Each CPU appends to its own
//      base::MpmcRing, so emitters never contend on a shared cache line;
//      a per-tracer sequence counter lets the drain path merge the
//      per-CPU streams back into one ordered timeline at a quiescent
//      point, exactly like the audit subsystem's per-CPU buffers.
//   3. Aggregation in the kernel. Log2 latency histograms (eBPF-style)
//      accumulate per-operation latencies with one relaxed increment, so
//      percentile observability never needs the event stream at all.
//      (The always-on syscall histograms: uk::Kernel::syscall_latency.)
//
// Every uk::Kernel owns one tracer (Kernel::ktrace()), with its own
// arming flag, site hit counts, rings and op histograms; arming one
// Kernel's tracer leaves every other Kernel's off. uk::Kernel::Scope
// picks the call's tracer once, at entry, into base::Current, and every
// tracepoint the call crosses emits there. A thread in no Kernel call
// emits nothing. Site and op-histogram NAMES are interned process-wide,
// because each macro's function-local static needs one id.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/mpmc_ring.hpp"
#include "base/percpu.hpp"
#include "trace/histogram.hpp"

namespace usk::trace {

/// One traced event. 48 bytes, fixed size, no heap -- small enough that a
/// 4K-slot per-CPU ring costs ~200 KiB and large enough for two payload
/// words (fd, size, syscall nr, return value...).
struct TraceEvent {
  std::uint64_t seq = 0;    ///< the tracer's order (merge key)
  std::uint64_t ts_ns = 0;  ///< trace timebase (now_ns)
  std::uint32_t pid = 0;    ///< task that emitted (0 = none/unknown)
  std::uint16_t site = 0;   ///< tracepoint site id (register_site)
  std::uint16_t cpu = 0;    ///< emitting CPU
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

namespace detail {
/// Armed Ktraces and Kspans in this process. Reports for bench headers
/// only: no kernel path reads them.
inline std::atomic<int> g_armed_ktraces{0};
inline std::atomic<int> g_armed_kspans{0};
}  // namespace detail

/// True while some Kernel in this process has its tracer armed (bench
/// headers refuse to measure an armed build). Tracepoints gate on the
/// running call's own tracer.
[[nodiscard]] inline bool enabled() {
  return detail::g_armed_ktraces.load(std::memory_order_relaxed) != 0;
}

// --- process-wide names -------------------------------------------------
inline constexpr std::size_t kMaxSites = 256;

/// Intern (subsys, name) -> id, for a tracepoint site or an operation
/// histogram (vfs:open, dcache:lookup, ...). Called once per site through
/// the macro's function-local static; both strings must be literals.
std::uint16_t register_site(const char* subsys, const char* name);
[[nodiscard]] const char* site_subsys(std::uint16_t site);
[[nodiscard]] const char* site_name(std::uint16_t site);

/// Nanoseconds on the trace timebase, shared by every tracer: event,
/// span and supervisor-SLO timestamps.
[[nodiscard]] std::uint64_t now_ns();

/// A tracepoint site with this tracer's hit count.
struct SiteInfo {
  const char* subsys = nullptr;
  const char* name = nullptr;
  std::uint64_t hits = 0;
};

/// A named operation histogram with this tracer's samples.
struct OpHistInfo {
  const char* subsys = nullptr;
  const char* name = nullptr;
  HistogramSnapshot hist;
};

class Ktrace {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;

  ~Ktrace();

  // --- control --------------------------------------------------------------
  void set_enabled(bool on);
  [[nodiscard]] bool is_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// This tracer while it is armed, else nullptr: what Kernel::Scope
  /// installs as the call's base::Current::ktrace.
  [[nodiscard]] Ktrace* armed() { return is_enabled() ? this : nullptr; }

  /// Per-CPU ring capacity (power of two) for subsequently allocated
  /// rings. Call before enabling; live rings keep their size.
  void configure(std::size_t per_cpu_capacity);

  /// Drop buffered events and zero counters + histograms. Quiescent-point
  /// operation: callers stop emitters first (tests, bench setup).
  void reset();

  /// Sites this tracer has counted hits on, with their counts, id order.
  [[nodiscard]] std::vector<SiteInfo> sites() const;

  // --- emit (enabled path) ----------------------------------------------------
  /// Stamp and buffer one event; the pid is the running call's.
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
  /// This tracer's operation histogram for name id `id` (register_site),
  /// allocated on first use. Recording into it is the caller's business
  /// and normally gated on the tracer being armed, because it needs clock
  /// reads (ScopedLatency).
  Histogram& op_hist(std::uint16_t id);
  /// The op histograms this tracer has allocated, id order.
  [[nodiscard]] std::vector<OpHistInfo> op_hists() const;

 private:
  using Ring = base::MpmcRing<TraceEvent>;

  /// Per-CPU emit state: the ring is allocated on the CPU's first emit so
  /// idle slots cost nothing; `emitted` is owner-thread-only (merged at
  /// quiescent points, like every other PerCpu counter).
  struct CpuBuf {
    std::unique_ptr<Ring> ring;
    std::uint64_t emitted = 0;
    bool drop_warned = false;  ///< first-drop warning fired for this CPU
  };

  std::atomic<bool> enabled_{false};
  std::array<std::atomic<std::uint64_t>, kMaxSites> hits_{};
  std::array<std::atomic<Histogram*>, kMaxSites> hists_{};  ///< owned
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
  base::PerCpu<CpuBuf> cpus_;
};

}  // namespace usk::trace
