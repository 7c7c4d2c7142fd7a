// kmetrics: a typed metric registry with label sets and Prometheus-style
// text exposition.
//
// ktrace's histograms answer "how do syscalls distribute" for a human
// reading /proc/trace; kmetrics is the machine-readable face of the same
// numbers plus everything the other subsystems want to export without
// growing their own /proc formatters: counters, gauges, and log2
// histograms keyed by (name, label set). The design copies the kernel's
// percpu-counter idiom:
//
//   * Counter::add is a relaxed fetch_add into the calling CPU's slot --
//     no shared cache line on the hot path. Slots are atomics (not raw
//     uint64) because CPU ids are recycled when threads exit, so two
//     threads CAN own one slot across time and briefly overlap.
//   * Readers merge slots at scrape time (/proc/metrics), the same
//     quiescent-point discipline as every other PerCpu merge here.
//   * Histograms reuse trace::Histogram, so a percentile printed by
//     /proc/metrics is bit-identical to the one /proc/trace/hist prints
//     from the same recordings.
//
// Registration interns by (name, labels) under a mutex and returns a
// stable reference (metrics live in a deque of unique_ptrs, never moved),
// so call sites hoist the lookup out of loops or use function-local
// statics exactly like Ktrace::op_hist.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/percpu.hpp"
#include "trace/histogram.hpp"

namespace usk::metrics {

/// One label. Keys are static strings (call-site literals); values are
/// owned because they arrive at runtime (extension names, syscall names).
struct Label {
  const char* key = "";
  std::string value;
};
using Labels = std::vector<Label>;

/// Monotonic counter, per-CPU sharded.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cpus_.local().v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    cpus_.for_each([&](const Cell& c) {
      sum += c.v.load(std::memory_order_relaxed);
    });
    return sum;
  }
  void reset() {
    cpus_.for_each([](Cell& c) { c.v.store(0, std::memory_order_relaxed); });
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> v{0};
  };
  base::PerCpu<Cell> cpus_;
};

/// Point-in-time value. Single atomic: gauges are set rarely (state
/// transitions), read at scrape.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// kmetrics histograms ARE trace histograms; see header comment.
using Histogram = trace::Histogram;

class Registry {
 public:
  static Registry& instance();

  /// Intern (find-or-create). `name`/`help` must be literals; the first
  /// registration's help wins. Returned references are stable forever.
  Counter& counter(const char* name, const char* help,
                   Labels labels = {});
  Gauge& gauge(const char* name, const char* help, Labels labels = {});
  Histogram& histogram(const char* name, const char* help,
                       Labels labels = {});

  /// Prometheus text format: # HELP / # TYPE, one line per series;
  /// histograms expose _bucket{le=}/_sum/_count plus summary-style
  /// {quantile="0.5"|"0.99"} lines computed from the same snapshot the
  /// /proc/trace renderers use.
  [[nodiscard]] std::string expose() const;

  /// Zero every registered value (registrations and callbacks survive).
  void reset();

 private:
  Registry() = default;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
  };
  struct Family {
    const char* name = "";
    const char* help = "";
    Kind kind = Kind::kCounter;
    std::deque<Series> series;
  };
  Family& family_locked(const char* name, const char* help, Kind kind);
  Series& series_locked(Family& fam, Labels&& labels);

  mutable std::mutex mu_;
  std::deque<Family> families_;
};

/// Shorthand for the process-wide registry.
[[nodiscard]] inline Registry& kmetrics() { return Registry::instance(); }

}  // namespace usk::metrics
