// Shared types of the usk benchmark: run options, the result of one
// measured segment, and the count window read from the layers' public
// stats getters.
//
// A run measures in segments: each sets up a fresh stack (kernel, file
// system, documents or file pool), runs the workload for its share of
// the time, and tears the stack down. Spreading the measurement over
// several stacks and several moments keeps one unlucky memory layout or
// one busy minute of a shared machine from setting the whole result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hist.hpp"
#include "tracer.hpp"
#include "uk/kernel.hpp"

namespace uskbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where traced runs write spans; empty = none
};

/// Layer counters as deltas over a segment's count window. The window is
/// chosen so that the counts are exact for a given seed: whole
/// connections for web, the first kCountWindowTxns transactions for
/// PostMark. Segments add up.
struct Counts {
  std::uint64_t ops = 0;  ///< ops inside the window
  // uk: the serving tasks only (server workers for web).
  std::uint64_t crossings = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t kunits = 0;
  std::uint64_t kernel_wall_ns = 0;
  // Whole kernel.
  std::uint64_t kmalloc_calls = 0;
  std::uint64_t path_components = 0;
  std::uint64_t dcache_lookups = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t packets = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t cosy_ops = 0;
  // Store stack (postmark-store).
  std::uint64_t commit_units = 0;
  std::uint64_t image_bytes_written = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t writebacks = 0;

  Counts& operator+=(const Counts& o);
};

/// Per-task uk counters of one serving task.
struct TaskCounts {
  std::uint64_t crossings = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t kunits = 0;
  std::uint64_t kernel_wall_ns = 0;

  static TaskCounts of(const usk::sched::Task& t) {
    return {t.syscalls, t.bytes_from_user + t.bytes_to_user, t.times().kernel,
            t.kernel_wall_ns};
  }
  TaskCounts operator-(const TaskCounts& o) const {
    return {crossings - o.crossings, copied_bytes - o.copied_bytes,
            kunits - o.kunits, kernel_wall_ns - o.kernel_wall_ns};
  }
  void add_to(Counts& c) const {
    c.crossings += crossings;
    c.copied_bytes += copied_bytes;
    c.kunits += kunits;
    c.kernel_wall_ns += kernel_wall_ns;
  }
};

/// Whole-kernel counters (mm, vfs, dcache, sched wait queues).
struct KernelCounts {
  std::uint64_t kmalloc_calls, path_components, dcache_lookups, dcache_hits,
      parks, wakeups;
  static KernelCounts of(usk::uk::Kernel& k);
  void add_delta_to(const KernelCounts& start, Counts& c) const;
};

struct SetupTimes {
  std::vector<double> setup_s;  ///< Kernel construction + population
  std::vector<double> ctor_s;   ///< Kernel constructor alone
};

/// The timed phase is cut into slices of this length for the end-to-end
/// statistics (see end_to_end in main.cpp).
inline constexpr std::uint64_t kSliceNs = 500000000;

/// Op latencies of a segment, binned by completion time into slices.
struct SliceHists {
  std::vector<LatencyHist> h;

  void record(std::uint64_t done_since_start_ns, std::uint64_t lat_ns) {
    const auto i = static_cast<std::size_t>(done_since_start_ns / kSliceNs);
    if (i >= h.size()) h.resize(i + 1);
    h[i].add(lat_ns);
  }
  void merge(const SliceHists& o) {
    if (o.h.size() > h.size()) h.resize(o.h.size());
    for (std::size_t i = 0; i < o.h.size(); ++i) h[i].merge(o.h[i]);
  }
};

struct SegmentResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  double elapsed_s = 0;
  double cpu_s = 0;                ///< process user+sys over the segment
  SliceHists lat;                  ///< op latencies by completion slice
  std::vector<double> cpu_marks;   ///< cpu_seconds() at each slice start
  Counts counts;
  TraceTotals trace;               ///< traced segments only: every thread
  TraceTotals serve_trace;         ///< the serving threads (web servers)
  double null_syscall_ns = 0;      ///< getpid on a zero-cost-model kernel

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

struct SegmentSpec {
  const Options* opt = nullptr;
  double seconds = 0;
  bool traced = false;
  int segment = 0;  ///< distinct per segment of a run (web ports)
};

SegmentResult run_web(const SegmentSpec& spec, bool cosy, SetupTimes& st);
SegmentResult run_postmark(const SegmentSpec& spec, bool store, SetupTimes& st);

/// Process user+sys CPU seconds.
double cpu_seconds();

/// Median getpid() latency in ns on `k` (which must use the zero
/// CostModel), over several batches.
double null_syscall_ns(usk::uk::Kernel& k);

/// Write a traced segment's sampled spans of every thread, timed from the
/// tick `epoch` (a later segment's spans replace an earlier one's).
void dump_spans(const SegmentSpec& spec, const std::vector<const Tracer*>& ts,
                std::uint64_t epoch);

}  // namespace uskbench
