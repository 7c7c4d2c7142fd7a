// Boundary calibration microbenchmarks (google-benchmark).
//
// Not a paper table: this is the substrate's datasheet. It measures the
// real CPU cost of the simulated primitives every experiment is built on
// -- one boundary crossing, copy_{to,from}_user at several sizes, a null
// syscall (getpid), a dcache-hit stat, and Cosy compound dispatch -- so
// the relative costs behind E1-E9 can be independently checked. After the
// google-benchmark table it prints one more row: the null syscall with
// the cost model set to zero (min of N batches), which is the gateway's
// own real cost -- the yardstick the instrument budgets are held to.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench/common.hpp"
#include "cosy/compiler.hpp"
#include "cosy/exec.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

struct Fix {
  Fix() : kernel(fs), proc(kernel, "cal") {
    fs.set_cost_hook(kernel.charge_hook());
    int fd = proc.open("/cal", fs::kOWrOnly | fs::kOCreat);
    std::vector<char> block(65536, 'c');
    proc.write(fd, block.data(), block.size());
    proc.close(fd);
  }
  fs::MemFs fs;
  uk::Kernel kernel;
  uk::Proc proc;
};

void BM_CrossingOnly(benchmark::State& state) {
  Fix f;
  for (auto _ : state) {
    f.kernel.boundary().enter_kernel(f.proc.task());
    f.kernel.boundary().exit_kernel(f.proc.task());
  }
}
BENCHMARK(BM_CrossingOnly);

void BM_CopyFromUser(benchmark::State& state) {
  Fix f;
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<char> src(n, 'x');
  std::vector<char> dst(n);
  f.proc.task().enter_kernel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kernel.boundary().copy_from_user(
        f.proc.task(), dst.data(), src.data(), n));
  }
  f.proc.task().exit_kernel();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CopyFromUser)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_NullSyscall(benchmark::State& state) {
  Fix f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.proc.getpid());
  }
}
BENCHMARK(BM_NullSyscall);

void BM_StatDcacheHit(benchmark::State& state) {
  Fix f;
  fs::StatBuf st;
  f.proc.stat("/cal", &st);  // warm the dcache
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.proc.stat("/cal", &st));
  }
}
BENCHMARK(BM_StatDcacheHit);

void BM_Read4k(benchmark::State& state) {
  Fix f;
  int fd = f.proc.open("/cal", fs::kORdOnly);
  char buf[4096];
  for (auto _ : state) {
    f.proc.lseek(fd, 0, fs::kSeekSet);
    benchmark::DoNotOptimize(f.proc.read(fd, buf, sizeof(buf)));
  }
  f.proc.close(fd);
}
BENCHMARK(BM_Read4k);

void BM_CosyDispatchEmpty(benchmark::State& state) {
  Fix f;
  cosy::CosyExtension ext(f.kernel);
  cosy::SharedBuffer shared(4096);
  cosy::CompileResult cr = cosy::compile("return 0;");
  for (auto _ : state) {
    cosy::CosyResult r = ext.execute(f.proc.process(), cr.compound, shared);
    benchmark::DoNotOptimize(r.ret);
  }
}
BENCHMARK(BM_CosyDispatchEmpty);

void BM_CosyReadLoop(benchmark::State& state) {
  Fix f;
  cosy::CosyExtension ext(f.kernel);
  cosy::SharedBuffer shared(8192);
  cosy::CompileResult cr = cosy::compile(
      "int fd = open(\"/cal\", O_RDONLY);"
      "int n = 1;"
      "while (n > 0) { n = read(fd, @0, 4096); }"
      "close(fd);"
      "return 0;");
  for (auto _ : state) {
    cosy::CosyResult r = ext.execute(f.proc.process(), cr.compound, shared);
    benchmark::DoNotOptimize(r.ret);
  }
}
BENCHMARK(BM_CosyReadLoop);

/// ConsoleReporter that additionally forwards every per-iteration run to
/// the shared USK_BENCH_JSON sink, so google-benchmark binaries emit the
/// same JSON-lines records as the hand-rolled table benches.
class JsonForwardReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardReporter(bench::JsonWriter& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const double elapsed = r.real_accumulated_time;
      const double ops =
          elapsed > 0 ? static_cast<double>(r.iterations) / elapsed : 0.0;
      json_.record(r.benchmark_name(), static_cast<int>(r.threads), ops,
                   elapsed);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonWriter& json_;
};

/// Min over `batches` of the per-call wall time of getpid through the
/// full gateway with CostModel{0,0,0,0}: nothing simulated, only the
/// framework's own work. Returns {ns per call, seconds of the best batch}.
std::pair<double, double> zero_cost_null_syscall(int batches, int calls) {
  fs::MemFs fs;
  uk::KernelConfig cfg;
  cfg.boundary = uk::CostModel{0, 0, 0, 0};
  uk::Kernel kernel(fs, cfg);
  uk::Proc proc(kernel, "null");
  for (int i = 0; i < calls; ++i) proc.getpid();  // warm up
  double best = 1e99;
  for (int b = 0; b < batches; ++b) {
    best = std::min(best, bench::time_once([&] {
      for (int i = 0; i < calls; ++i) proc.getpid();
    }));
  }
  return {best * 1e9 / calls, best};
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::JsonWriter json("bench_boundary");
  JsonForwardReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  constexpr int kBatches = 15;
  constexpr int kCalls = 200'000;
  const auto [ns, best_s] = zero_cost_null_syscall(kBatches, kCalls);
  std::printf("null syscall, zero cost model (min of %d x %d calls): %.1f ns\n",
              kBatches, kCalls, ns);
  json.record("null-syscall-zero-cost", 1, ns > 0 ? 1e9 / ns : 0.0, best_s);
  return 0;
}
