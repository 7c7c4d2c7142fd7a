// usk_bench: the usk benchmark program.
//
//   usk_bench --workload <web-plain|web-cosy|postmark-memfs|postmark-store>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 runs the workload untraced for --seconds, in 5 segments, each
// on a freshly set-up stack (setup_s is the median of the 5 set-ups), and
// reports the end-to-end metrics. --trace 1 runs --seconds/2 untraced and
// then --seconds/2 traced, 2 segments each, all with the same seed, and
// reports the per-layer metrics: counts from the untraced phase, span
// times from the traced one, and the traced phase's loss of throughput
// as the tracing overhead; it also checks that the exact per-op counts
// repeat between the two phases.
// Both modes check every output. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// The benchmark refuses to run (exit 3, no result) while any observer or
// fault injector is armed, so it always measures the default build.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "sched/waitqueue.hpp"
#include "trace/ktrace.hpp"
#include "trace/span.hpp"
#include "uk/userlib.hpp"

namespace uskbench {

using namespace usk;

KernelCounts KernelCounts::of(uk::Kernel& k) {
  const fs::DcacheStats ds = k.vfs().dcache().stats();
  const sched::WaitStats& ws = sched::waitqueue_stats();
  return {k.kmalloc().stats().alloc_calls,
          k.vfs().stats().path_components.load(),
          ds.lookups,
          ds.hits,
          ws.parks.load(),
          ws.wakeups.load()};
}

Counts& Counts::operator+=(const Counts& o) {
  ops += o.ops;
  crossings += o.crossings;
  copied_bytes += o.copied_bytes;
  kunits += o.kunits;
  kernel_wall_ns += o.kernel_wall_ns;
  kmalloc_calls += o.kmalloc_calls;
  path_components += o.path_components;
  dcache_lookups += o.dcache_lookups;
  dcache_hits += o.dcache_hits;
  packets += o.packets;
  parks += o.parks;
  wakeups += o.wakeups;
  cosy_ops += o.cosy_ops;
  commit_units += o.commit_units;
  image_bytes_written += o.image_bytes_written;
  checkpoints += o.checkpoints;
  cache_lookups += o.cache_lookups;
  cache_hits += o.cache_hits;
  writebacks += o.writebacks;
  return *this;
}

void KernelCounts::add_delta_to(const KernelCounts& s, Counts& c) const {
  c.kmalloc_calls += kmalloc_calls - s.kmalloc_calls;
  c.path_components += path_components - s.path_components;
  c.dcache_lookups += dcache_lookups - s.dcache_lookups;
  c.dcache_hits += dcache_hits - s.dcache_hits;
  c.parks += parks - s.parks;
  c.wakeups += wakeups - s.wakeups;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double null_syscall_ns(uk::Kernel& k) {
  uk::Proc p(k, "nullsys");
  constexpr int kBatch = 50000;
  for (int i = 0; i < kBatch / 5; ++i) (void)p.getpid();
  std::vector<double> per_call;
  for (int b = 0; b < 7; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) (void)p.getpid();
    per_call.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  return median(per_call);
}

void dump_spans(const SegmentSpec& spec, const std::vector<const Tracer*>& ts,
                std::uint64_t epoch) {
  if (spec.opt->out_dir.empty()) return;
  const std::string path = spec.opt->out_dir + "/" + spec.opt->workload +
                           "-seed" + std::to_string(spec.opt->seed) +
                           "-spans.tsv";
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!write_spans(path, i == 0, static_cast<int>(i), ts[i]->sample(),
                     epoch)) {
      std::fprintf(stderr, "usk_bench: cannot write %s\n", path.c_str());
      return;
    }
  }
}

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

SegmentResult run_segment(const SegmentSpec& spec, SetupTimes& st) {
  const std::string& w = spec.opt->workload;
  if (w == "web-plain") return run_web(spec, false, st);
  if (w == "web-cosy") return run_web(spec, true, st);
  if (w == "postmark-memfs") return run_postmark(spec, false, st);
  return run_postmark(spec, true, st);
}

/// Several segments of one kind (untraced or traced), summed.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  double elapsed_s = 0;
  double cpu_s = 0;
  std::vector<LatencyHist> slices;  ///< every full slice of every segment
  std::vector<double> slice_cpu_s;  ///< CPU time of each of those slices
  LatencyHist all;                  ///< every op
  Counts counts;
  TraceTotals trace, serve_trace;
  std::vector<double> null_syscall_ns;

  void add(SegmentResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    elapsed_s += r.elapsed_s;
    cpu_s += r.cpu_s;
    const std::vector<LatencyHist>& h = r.lat.h;
    for (const LatencyHist& s : h) all.merge(s);
    const std::size_t full = std::min<std::size_t>(
        {static_cast<std::size_t>(r.elapsed_s * 1e9) / kSliceNs, h.size(),
         r.cpu_marks.empty() ? 0 : r.cpu_marks.size() - 1});
    for (std::size_t i = 0; i < full; ++i) {
      slices.push_back(h[i]);
      slice_cpu_s.push_back(r.cpu_marks[i + 1] - r.cpu_marks[i]);
    }
    counts += r.counts;
    trace.merge(r.trace);
    serve_trace.merge(r.serve_trace);
    null_syscall_ns.push_back(r.null_syscall_ns);
  }
};

/// `n` segments of seconds/n each, numbered from `next_segment` on.
Phase run_phase(const Options& o, double seconds, bool traced, int n,
                int& next_segment, SetupTimes& st) {
  Phase ph;
  for (int i = 0; i < n; ++i) {
    SegmentResult r = run_segment({&o, seconds / n, traced, next_segment++}, st);
    ph.add(r);
  }
  return ph;
}

/// Observers and injectors that would change what is measured.
std::string armed_observers() {
  std::string out;
  for (const char* var : {"USK_FAIL_SPEC", "USK_SPAN", "USK_SUP_SPEC", "USK_DL"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && v[0] != '\0') out += std::string(var) + "=" + v + " ";
  }
  if (trace::enabled()) out += "ktrace ";
  if (trace::span_enabled()) out += "kspan ";
  if (fault::armed()) out += "kfail ";
  if (dl::dl_enabled()) out += "kdl ";
  if (uk::sup_gateway_armed()) out += "sup-gateway ";
  return out;
}

/// The counts that lock-step traffic should make exact for a seed, per
/// op. A mismatch in a `must` count fails the run. uk.kunits_per_op is
/// only named: on web-* it includes epoll's per-scan charge, and whether
/// a server scans once or parks and rescans depends on whether the
/// client's next request or connect was already queued.
struct ExactCount {
  const char* name;
  std::uint64_t Counts::*field;
  bool must;
};
constexpr ExactCount kExact[] = {
    {"uk.crossings_per_op", &Counts::crossings, true},
    {"uk.copied_bytes_per_op", &Counts::copied_bytes, true},
    {"uk.kunits_per_op", &Counts::kunits, false},
    {"cosy.ops_per_op", &Counts::cosy_ops, true},
};

struct Mismatch {
  std::string name;
  bool must;
};

/// The exact counts whose per-op value differs between a and b.
std::vector<Mismatch> count_mismatches(const Counts& a, const Counts& b) {
  std::vector<Mismatch> out;
  for (const ExactCount& e : kExact) {
    // Cross-multiplied so the per-op ratios compare exactly.
    if (static_cast<unsigned __int128>(a.*e.field) * b.ops !=
        static_cast<unsigned __int128>(b.*e.field) * a.ops) {
      out.push_back({e.name, e.must});
    }
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Each segment is cut into kSliceNs slices. Every timing metric is taken
/// over the quarter of all full slices that reads best for that metric:
/// interference from other tenants of the machine (stolen vCPU time, a
/// busy sibling hyperthread) only ever makes a slice worse, so this is a
/// min-of-N estimate of the program's own speed. Phases of fewer than
/// four slices use every op.
class BestQuarter {
 public:
  explicit BestQuarter(const Phase& ph) : ph_(ph) {}

  [[nodiscard]] double ops_per_s() const {
    if (few()) return ratio(static_cast<double>(ph_.all.count()), ph_.elapsed_s);
    std::uint64_t ops = 0;
    for (std::size_t i : best([&](std::size_t i) {
           return -static_cast<double>(ph_.slices[i].count());
         })) {
      ops += ph_.slices[i].count();
    }
    return ratio(static_cast<double>(ops),
                 static_cast<double>(ph_.slices.size() / 4 * kSliceNs) * 1e-9);
  }

  [[nodiscard]] double latency_us(double q) const {
    if (few()) return ph_.all.quantile_ns(q) * 1e-3;
    LatencyHist kept;
    for (std::size_t i : best([&](std::size_t i) {
           return ph_.slices[i].quantile_ns(q);
         })) {
      kept.merge(ph_.slices[i]);
    }
    return kept.quantile_ns(q) * 1e-3;
  }

  [[nodiscard]] double cpu_us_per_op() const {
    if (few()) {
      return ratio(ph_.cpu_s * 1e6, static_cast<double>(ph_.all.count()));
    }
    double cpu = 0, ops = 0;
    for (std::size_t i : best([&](std::size_t i) {
           return ratio(ph_.slice_cpu_s[i],
                        static_cast<double>(ph_.slices[i].count()));
         })) {
      cpu += ph_.slice_cpu_s[i];
      ops += static_cast<double>(ph_.slices[i].count());
    }
    return ratio(cpu * 1e6, ops);
  }

 private:
  [[nodiscard]] bool few() const { return ph_.slices.size() < 4; }

  /// The quarter of the slices with the lowest `cost`.
  template <typename Cost>
  [[nodiscard]] std::vector<std::size_t> best(Cost cost) const {
    std::vector<std::pair<double, std::size_t>> by;
    for (std::size_t i = 0; i < ph_.slices.size(); ++i) by.emplace_back(cost(i), i);
    std::sort(by.begin(), by.end());
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < by.size() / 4; ++j) out.push_back(by[j].second);
    return out;
  }

  const Phase& ph_;
};

std::vector<Metric> end_to_end(const Phase& r, const SetupTimes& st) {
  const BestQuarter q(r);
  return {
      {"setup_s", median(st.setup_s), "s"},
      {"ops_per_s", q.ops_per_s(), "ops/s"},
      {"op_p50_us", q.latency_us(0.50), "us"},
      {"op_p99_us", q.latency_us(0.99), "us"},
      {"cpu_us_per_op", q.cpu_us_per_op(), "us"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Phase& a, const Phase& b,
                              const SetupTimes& st, std::size_t mismatches) {
  const Counts& c = a.counts;
  const double n = static_cast<double>(c.ops);
  auto per_op = [n](std::uint64_t v) { return ratio(static_cast<double>(v), n); };
  const TraceTotals& t = b.trace;
  const TraceTotals& srv = b.serve_trace;
  const double bops = static_cast<double>(b.attempted);
  auto ns = [&](const TraceTotals& tt, std::initializer_list<Sp> names) {
    double sum = 0;
    for (Sp s : names) sum += tt.total_ns[static_cast<std::size_t>(s)];
    return ratio(sum, bops);
  };
  auto layer_self = [&](const char* prefix) {
    double sum = 0;
    for (std::size_t i = 0; i < kNumSpans; ++i) {
      if (std::strncmp(span_name(static_cast<Sp>(i)), prefix, std::strlen(prefix)) == 0) {
        sum += t.self_ns[i];
      }
    }
    return ratio(sum, bops);
  };
  const double mean_lat_us =
      ratio(a.all.sum_ns() * 1e-3, static_cast<double>(a.all.count()));
  const double null_ns = median(a.null_syscall_ns);
  const double crossings = per_op(c.crossings);
  const std::size_t recv = static_cast<std::size_t>(Sp::kNetRecv);
  return {
      {"vm.kernel_ctor_s", median(st.ctor_s), "s"},
      {"mm.kmalloc_calls_per_op", per_op(c.kmalloc_calls), "count"},
      {"uk.crossings_per_op", crossings, "count"},
      {"uk.copied_bytes_per_op", per_op(c.copied_bytes), "B"},
      {"uk.kunits_per_op", per_op(c.kunits), "units"},
      {"uk.kernel_wall_ns_per_op", per_op(c.kernel_wall_ns), "ns"},
      {"uk.null_syscall_ns", null_ns, "ns"},
      {"uk.gateway_frac", ratio(null_ns * crossings, mean_lat_us * 1e3),
       "fraction"},
      {"uk.file_syscall_ns_per_op",
       ns(srv, {Sp::kUkStat, Sp::kUkOpen, Sp::kUkRead, Sp::kUkWrite,
                Sp::kUkClose, Sp::kUkUnlink, Sp::kUkFsync}),
       "ns"},
      {"fs.path_components_per_op", per_op(c.path_components), "count"},
      {"fs.dcache_hit_ratio",
       ratio(static_cast<double>(c.dcache_hits),
             static_cast<double>(c.dcache_lookups)),
       "ratio"},
      {"net.send_ns_per_op", ns(srv, {Sp::kNetSend}), "ns"},
      {"net.recv_wait_ns_per_op",
       ratio(t.total_ns[recv] - srv.total_ns[recv], bops),
       "ns"},
      {"net.self_ns_per_op", layer_self("net."), "ns"},
      {"net.packets_per_op", per_op(c.packets), "count"},
      {"sched.parks_per_op", per_op(c.parks), "count"},
      {"sched.wakeups_per_op", per_op(c.wakeups), "count"},
      {"cosy.exec_ns_per_op", ns(t, {Sp::kCosyExecute}), "ns"},
      {"cosy.ops_per_op", per_op(c.cosy_ops), "count"},
      {"store.fsync_ns_per_op", ns(t, {Sp::kUkFsync}), "ns"},
      {"store.commit_units_per_op", per_op(c.commit_units), "count"},
      {"store.image_bytes_written_per_op", per_op(c.image_bytes_written), "B"},
      {"store.checkpoints_per_kop", per_op(c.checkpoints * 1000), "count"},
      {"blockdev.cache_hit_ratio",
       ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_lookups)),
       "ratio"},
      {"blockdev.writebacks_per_op", per_op(c.writebacks), "count"},
      {"bench.self_ns_per_op", ns(t, {Sp::kBenchVerify, Sp::kBenchPrep}), "ns"},
      {"bench.trace_overhead_frac",
       1.0 - ratio(BestQuarter(b).ops_per_s(), BestQuarter(a).ops_per_s()),
       "fraction"},
      {"bench.trace_coverage_frac", ratio(t.covered_ns, t.root_ns), "fraction"},
      {"bench.ops_under_90pct_coverage_frac",
       ratio(static_cast<double>(t.ops_under_90), static_cast<double>(t.ops)),
       "fraction"},
      {"bench.count_mismatches", static_cast<double>(mismatches), "count"},
  };
}

void usage() {
  std::fprintf(stderr,
               "usage: usk_bench --workload <web-plain|web-cosy|postmark-memfs|"
               "postmark-store> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
}

}  // namespace
}  // namespace uskbench

int main(int argc, char** argv) {
  using namespace uskbench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (k == "--out-dir") o.out_dir = v;
    else return usage(), 2;
  }
  if (argc % 2 == 0 || !(o.seconds > 0) ||
      (o.workload != "web-plain" && o.workload != "web-cosy" &&
       o.workload != "postmark-memfs" && o.workload != "postmark-store")) {
    usage();
    return 2;
  }
  if (!o.out_dir.empty()) std::filesystem::create_directories(o.out_dir);
  if (std::string armed = armed_observers(); !armed.empty()) {
    std::fprintf(stderr, "usk_bench: refusing to measure with %sarmed\n",
                 armed.c_str());
    return 3;
  }

  SetupTimes st;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<Mismatch> mismatched;
  int segment = 0;
  if (!o.trace) {
    const Phase r = run_phase(o, o.seconds, false, 5, segment, st);
    attempted = r.attempted;
    failed = r.failed;
    errors = r.errors;
    metrics = end_to_end(r, st);
  } else {
    const Phase a = run_phase(o, o.seconds / 2, false, 2, segment, st);
    const Phase b = run_phase(o, o.seconds / 2, true, 2, segment, st);
    mismatched = count_mismatches(a.counts, b.counts);
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    errors = a.errors;
    errors.insert(errors.end(), b.errors.begin(), b.errors.end());
    metrics = per_layer(a, b, st, mismatched.size());
    const double cov = ratio(b.trace.covered_ns, b.trace.root_ns);
    if (cov < 0.9) {
      std::fprintf(stderr, "usk_bench: spans cover %.1f%% of op time (< 90%%)\n",
                   cov * 100);
    }
  }
  if (std::string armed = armed_observers(); !armed.empty()) {
    std::fprintf(stderr, "usk_bench: %sarmed during the run\n", armed.c_str());
    return 3;
  }

  for (const std::string& e : errors) std::fprintf(stderr, "failed: %s\n", e.c_str());
  bool counts_ok = true;
  for (const Mismatch& m : mismatched) {
    std::fprintf(stderr, "count did not repeat for seed %llu: %s%s\n",
                 static_cast<unsigned long long>(o.seed), m.name.c_str(),
                 m.must ? "" : " (timing-dependent; not a failure)");
    counts_ok = counts_ok && !m.must;
  }
  const bool correct = failed == 0 && counts_ok && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::fprintf(stderr, "  %-36s %16.6g %s\n", metrics[i].name.c_str(), v,
                 metrics[i].unit);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
