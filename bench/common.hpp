// Shared helpers for the reproduction benchmarks: wall-clock timing, the
// null-syscall denominator, paper-style table printing, improvement math,
// and machine-readable result emission.
//
// Each bench binary regenerates one of the paper's reported results (see
// DESIGN.md's experiment index). Binaries print self-contained tables so
// `for b in build/bench/*; do $b; done` reproduces the whole evaluation.
// Setting USK_BENCH_JSON=<path> additionally appends one record per
// reported measurement to that file: {bench, metric, value, unit, better},
// the value in its own unit (scripts/check_bench_json.py validates it).
#pragma once

#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include "fs/memfs.hpp"
#include "uk/userlib.hpp"

namespace usk::bench {

/// Wall-clock seconds for one invocation of `fn`. Templated (not
/// std::function) so the timed loop body is inlineable -- a type-erased
/// callable adds an indirect call per iteration, which is measurable
/// against our microsecond-scale syscall paths.
template <class Fn>
inline double time_once(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-N wall-clock seconds (reduces scheduler noise).
template <class Fn>
inline double time_best(int n, Fn&& fn) {
  double best = 1e99;
  for (int i = 0; i < n; ++i) {
    double t = time_once(fn);
    if (t < best) best = t;
  }
  return best;
}

/// Per-run temporary directory for benches and examples that need real
/// files (store images): a fresh mkdtemp directory under the system temp
/// dir, removed with its contents on destruction, so concurrent runs
/// never share a file and nothing is left in the working directory.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "usk-bench-XXXXXX").string();
    if (mkdtemp(tmpl.data()) != nullptr) dir_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Path of `name` inside the directory (a path that fails to open if
  /// mkdtemp failed, so callers see an ordinary open error).
  [[nodiscard]] std::string file(std::string_view name) const {
    return (dir_.empty() ? "/nonexistent" : dir_) + "/" + std::string(name);
  }

 private:
  std::string dir_;
};

/// Best-of-3 wall time of one getpid() through `proc`'s full gateway, in
/// ns: the null syscall the disarmed-instrument budgets are measured
/// against.
template <class Proc>
double null_syscall_ns(Proc& proc, int calls) {
  const double s = time_best(3, [&] {
    for (int i = 0; i < calls; ++i) proc.getpid();
  });
  return s * 1e9 / calls;
}

/// The default-cost-model null syscall (getpid) on a fresh MemFs kernel
/// whose tracer, span store and kdl are off (whatever USK_SPAN or USK_DL
/// say): the denominator of every disarmed-instrument budget.
inline double default_null_syscall_ns() {
  fs::MemFs memfs;
  uk::Kernel kernel(memfs);
  memfs.set_cost_hook(kernel.charge_hook());
  kernel.ktrace().set_enabled(false);
  kernel.kspan().set_enabled(false);
  kernel.dl().set_enabled(false);
  uk::Proc proc(kernel, "nuller");
  return null_syscall_ns(proc, 200000);
}

/// Percentage improvement of `better` over `baseline` (paper convention:
/// "improved 60%" means the new time is 40% of the old).
inline double improvement_pct(double baseline, double better) {
  if (baseline <= 0) return 0.0;
  return 100.0 * (baseline - better) / baseline;
}

/// Ratio (slowdown factor) of instrumented over vanilla.
inline double slowdown(double vanilla, double instrumented) {
  return vanilla > 0 ? instrumented / vanilla : 0.0;
}

inline void print_title(const std::string& id, const std::string& title) {
  std::printf("\n==========================================================="
              "=====================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("============================================================"
              "====================\n");
}

inline void print_note(const std::string& note) {
  std::printf("  note: %s\n", note.c_str());
}

/// Which way a metric improves.
enum class Better { kHigher, kLower };

/// Appends JSON-lines records to the file named by USK_BENCH_JSON; a no-op
/// when the variable is unset, so benches call it unconditionally:
///
///   JsonWriter json("bench_smp_scaling");
///   json.record("smp-speedup-8t", 6.4, "ratio", Better::kHigher);
///
/// `unit` is one of the set check_bench_json.py lists; a sweep puts its
/// parameter in the metric name ("ring-scale-2w").
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench) : bench_(std::move(bench)) {
    const char* path = std::getenv("USK_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') {
      f_ = std::fopen(path, "a");
    }
  }
  ~JsonWriter() {
    if (f_ != nullptr) std::fclose(f_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// One measurement: `value` in `unit`, `better` its direction.
  void record(const std::string& metric, double value, const char* unit,
              Better better) {
    if (f_ == nullptr) return;
    std::fprintf(f_,
                 "{\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.9g, "
                 "\"unit\": \"%s\", \"better\": \"%s\"}\n",
                 bench_.c_str(), metric.c_str(), value, unit,
                 better == Better::kHigher ? "higher" : "lower");
    std::fflush(f_);
  }

 private:
  std::string bench_;
  std::FILE* f_ = nullptr;
};

}  // namespace usk::bench
