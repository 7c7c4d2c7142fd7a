// In-memory span tracer for the benchmark's own calls into usk layers.
//
// Every op (one web request, one PostMark transaction) is a root span;
// each call the benchmark makes into a layer's public function inside
// that op is a child span named "<layer>.<call>" after the src/ module it
// enters, and the benchmark's own work inside an op is a "bench.*" span.
// All spans of one op carry the op's id. When an op closes, its spans are
// folded into per-name totals (total time, and self time = time not
// covered by child spans) and the first `sample_ops` ops are kept verbatim
// so the run can write them out when it ends.
//
// Spans are stamped with the TSC and converted to ns when folded. On
// postmark-memfs (about 20 spans in a 6 us op) clock_gettime stamps left
// 10% of op time outside any span and cost 25-30% of throughput; rdtsc
// stamps leave 6% and cost about half as much. A disabled tracer records
// nothing: Span costs one branch.
#pragma once

#include <array>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace uskbench {

enum class Sp : std::uint8_t {
  kOp,  ///< root span: one op
  kUkStat,
  kUkOpen,
  kUkRead,
  kUkWrite,
  kUkClose,
  kUkUnlink,
  kUkFsync,
  kNetSend,
  kNetRecv,
  kCosyExecute,
  kBenchVerify,  ///< the benchmark checking an output
  kBenchPrep,    ///< the benchmark choosing or building the next call
  kCount,
};

inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(Sp::kCount);

[[nodiscard]] const char* span_name(Sp s);

/// Monotonic nanoseconds (vDSO clock_gettime).
[[nodiscard]] inline std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Span timestamp: TSC ticks where available, else ns.
[[nodiscard]] inline std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

/// ns per tick, calibrated against CLOCK_MONOTONIC on first use.
[[nodiscard]] double ns_per_tick();

struct SpanRec {
  std::uint64_t op = 0;
  std::uint64_t t0 = 0;  ///< ticks
  std::uint64_t t1 = 0;
  std::int32_t parent = -1;  ///< index within the op's spans; -1 = root
  Sp name = Sp::kOp;
};

struct TraceTotals {
  std::array<double, kNumSpans> total_ns{};
  std::array<double, kNumSpans> self_ns{};
  std::uint64_t ops = 0;
  double root_ns = 0;      ///< summed root-span durations
  double covered_ns = 0;   ///< summed direct-child durations
  std::uint64_t ops_under_90 = 0;  ///< ops whose children cover < 90%

  void merge(const TraceTotals& o);
};

class Tracer {
 public:
  Tracer(bool on, std::size_t sample_ops)
      : on_(on), sample_ops_(sample_ops), ns_per_tick_(on ? ns_per_tick() : 0) {
    if (on_) cur_.reserve(64);
  }

  [[nodiscard]] bool on() const { return on_; }

  void op_begin(std::uint64_t op) {
    if (!on_) return;
    cur_.clear();
    open_ = 0;
    cur_.push_back(SpanRec{op, ticks(), 0, -1, Sp::kOp});
  }
  /// Re-tag the open op (a server learns the id from the request it
  /// reads inside the op).
  void set_op(std::uint64_t op) {
    for (SpanRec& s : cur_) s.op = op;
  }
  void op_end();
  /// Drop the open op unrecorded (it turned out not to be an op).
  void op_abort() {
    cur_.clear();
    open_ = -1;
  }

  /// Open a child span of the innermost open span; -1 outside an op.
  int begin(Sp s) {
    if (open_ < 0) return -1;
    const int idx = static_cast<int>(cur_.size());
    cur_.push_back(SpanRec{cur_[0].op, 0, 0, open_, s});
    open_ = idx;
    cur_.back().t0 = ticks();
    return idx;
  }
  void end(int idx) {
    SpanRec& s = cur_[static_cast<std::size_t>(idx)];
    s.t1 = ticks();
    open_ = s.parent;
  }

  [[nodiscard]] const TraceTotals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<SpanRec>& sample() const { return sample_; }

 private:
  bool on_;
  std::size_t sample_ops_;
  double ns_per_tick_;
  std::vector<SpanRec> cur_;  ///< spans of the open op; [0] is the root
  int open_ = -1;             ///< innermost open span; -1 = no op open
  std::vector<std::uint64_t> self_;  ///< op_end scratch
  TraceTotals totals_;
  std::vector<SpanRec> sample_;
  std::size_t sampled_ops_ = 0;
};

/// RAII child span.
class Span {
 public:
  Span(Tracer& t, Sp s) : t_(t), idx_(t.on() ? t.begin(s) : -1) {}
  ~Span() {
    if (idx_ >= 0) t_.end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

/// Append `spans` of thread `thread` to a TSV file (created with a header
/// if `truncate`): thread, op, index, parent, name, t0_ns, t1_ns, with
/// times in ns relative to the tick `epoch`.
bool write_spans(const std::string& path, bool truncate, int thread,
                 const std::vector<SpanRec>& spans, std::uint64_t epoch);

}  // namespace uskbench
