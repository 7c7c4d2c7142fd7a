// kspan: request-scoped causal tracing on top of ktrace.
//
// ktrace answers "what happened on this CPU" (point events) and "how do
// syscalls distribute" (log2 histograms); neither can answer "what did
// THIS request do" once a request's work spans a consolidated call, a
// Cosy compound, a ring chain drain, and a ksup quarantine fallback. A
// span is that missing unit: allocated at request ingress (socket
// accept, ring SQE chain head, compound entry), linked to its parent,
// and charged with the crossings / copied bytes / kernel work units of
// every syscall Scope that retires while it is the innermost span on
// the thread.
//
// Every uk::Kernel owns one span store (Kernel::kspan()) with its own
// arming flag; a SpanScope names the store it publishes to, so arming
// spans on one Kernel leaves every other Kernel's off.
//
// Discipline (same as USK_TRACEPOINT and the syscall subscribers):
//   * Disabled cost is ONE relaxed atomic load in the SpanScope
//     constructor and one thread-local load in the syscall epilogue --
//     no clock reads, no allocation, no id traffic.
//   * Propagation is base::Current::span, the thread's innermost open
//     span. Every vehicle in this kernel executes a request's work on
//     the thread that accepted it (nested dispatch, consolidated calls,
//     ring drains, and the classic fallback decomposition all included),
//     so parent links come for free and a quarantined extension's
//     decomposed syscalls land in a child span of the original request --
//     one tree, never orphans.
//   * Span fields are mutated by the owning thread only; finished spans
//     are published to a bounded store (drop-oldest, counted) merged by
//     readers at quiescent points.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "trace/ktrace.hpp"

namespace usk::trace {

/// Which crossing-elimination vehicle carried the span's work.
enum class SpanVehicle : std::uint8_t {
  kNone = 0,      ///< not vehicle-specific (plain syscalls)
  kPlain,         ///< classic per-request syscalls
  kConsolidated,  ///< accept_recv / sendfile server calls
  kCosy,          ///< compound executor
  kRing,          ///< submission-ring chain
  kFallback,      ///< ksup quarantine -> classic decomposition
  kProbe,         ///< ksup re-admission probe
};
[[nodiscard]] const char* span_vehicle_name(SpanVehicle v);

/// One finished (or live) span. `crossings`/`bytes_*`/`kernel_units` are
/// SELF costs: syscalls attribute to the innermost span, so tree totals
/// are computed by readers summing a subtree.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t pid = 0;     ///< task at open, or of its first syscall
  std::int32_t ext = -1;     ///< sup::ExtId, -1 = unsupervised
  SpanVehicle vehicle = SpanVehicle::kNone;
  const char* name = "";     ///< static string (span site)
  std::uint64_t start_ns = 0;  ///< trace timebase (now_ns)
  std::uint64_t end_ns = 0;
  std::uint64_t crossings = 0;
  std::uint64_t bytes_in = 0;   ///< copy_from_user bytes
  std::uint64_t bytes_out = 0;  ///< copy_to_user bytes
  std::uint64_t kernel_units = 0;
  std::int64_t status = 0;  ///< last error SysRet observed (0 = clean)
};

struct SpanStats {
  std::uint64_t started = 0;
  std::uint64_t finished = 0;  ///< still buffered + dropped
  std::uint64_t dropped = 0;   ///< store overflow (oldest evicted)
  std::uint64_t active = 0;    ///< open right now
};

/// True while some Kernel in this process has spans armed. SpanScope
/// sites gate on their own Kspan.
[[nodiscard]] inline bool span_enabled() {
  return detail::g_armed_kspans.load(std::memory_order_relaxed) != 0;
}

/// One Kernel's span store. Built armed when USK_SPAN=1, so env-driven
/// soaks run span-enabled end to end.
class Kspan {
 public:
  /// Bounded finished-span store: ~1.4 MiB at the default size; overflow
  /// evicts the oldest record and counts it in stats().dropped.
  static constexpr std::size_t kMaxFinished = 1 << 14;

  Kspan();
  ~Kspan();

  void set_enabled(bool on);
  [[nodiscard]] bool is_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Pop every buffered finished span, oldest first. Quiescent-point
  /// operation, like Ktrace::drain.
  [[nodiscard]] std::vector<SpanRecord> drain();
  /// Copy without consuming (the /proc/span/spans renderer).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] SpanStats stats() const;

  /// Drop buffered spans and zero counters. Does NOT touch live spans:
  /// callers quiesce emitters first (tests, bench setup).
  void reset();

 private:
  friend class SpanScope;

  std::uint64_t next_id() {
    return id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void publish(const SpanRecord& r);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> id_{0};
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> finished_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::int64_t> active_{0};
  mutable std::mutex mu_;
  std::deque<SpanRecord> store_;
};

/// RAII span. Construct at an ingress or decomposition point; the parent
/// link is whatever span of the same store is innermost on this thread.
/// When its store is disabled the constructor is one relaxed load and
/// the object is inert (it does not become the innermost span).
class SpanScope {
 public:
  /// A span published to `ks`, the serving Kernel's store.
  SpanScope(Kspan& ks, const char* name,
            SpanVehicle vehicle = SpanVehicle::kNone, std::int32_t ext = -1);
  /// A span of code that has no Kernel (the store's commit, checkpoint
  /// and writeback): a child of this thread's innermost span, published
  /// to that span's store. Inert when no span is open.
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] bool armed() const { return ks_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const { return armed() ? rec_.id : 0; }

  /// Re-label the span once its real role is known (e.g. an epoll data
  /// event promotes "ws.data" to "ws.request" after a nonempty recv).
  void set_name(const char* name) {
    if (armed()) rec_.name = name;
  }
  void set_status(std::int64_t s) {
    if (armed()) rec_.status = s;
  }
  /// Read *ret at destruction (an InvocationGuard-style result watch).
  void watch_result(const std::int64_t* ret) { watch_ = ret; }

  /// Charge vehicle-internal work that never retires a syscall Scope
  /// (ring chains executed via dispatch_nested under one outer enter).
  void add_units(std::uint64_t units) {
    if (armed()) rec_.kernel_units += units;
  }

  /// Syscall-epilogue attribution (Kernel::Scope destructor): one
  /// crossing plus this call's byte/unit deltas onto `this`. A span
  /// opened outside any call takes the task of its first one.
  void attribute_syscall(std::uint32_t pid, std::uint64_t bytes_in,
                         std::uint64_t bytes_out, std::uint64_t units,
                         std::int64_t ret) {
    if (rec_.pid == 0) rec_.pid = pid;
    rec_.crossings += 1;
    rec_.bytes_in += bytes_in;
    rec_.bytes_out += bytes_out;
    rec_.kernel_units += units;
    if (ret < 0) rec_.status = ret;
  }

 private:
  void open(Kspan& ks, const char* name, SpanVehicle vehicle,
            std::int32_t ext);

  Kspan* ks_ = nullptr;  ///< the store it publishes to; nullptr = inert
  SpanRecord rec_;
  SpanScope* prev_ = nullptr;
  const std::int64_t* watch_ = nullptr;
};

/// Render spans (a drain() result) as chrome://tracing JSON: one "X"
/// duration event per span (args carry the attribution counters) plus
/// "s"/"f" flow events binding each child to its parent, so Perfetto
/// draws the request's causal tree across vehicles.
[[nodiscard]] std::string export_chrome_spans(
    const std::vector<SpanRecord>& spans);

}  // namespace usk::trace
