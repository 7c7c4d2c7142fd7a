// E3 (paper §2.3): Cosy micro-benchmarks.
//
// "Our micro-benchmarks show that individual system calls are sped up by
// 40-90% for common CPU-bound user applications."
//
// Each row batches N invocations of one syscall pattern: classic = N
// separate system calls; Cosy = one compound executing the same N
// operations in the kernel with zero-copy I/O. Improvement is in kernel
// work units charged to the task (the syscall cost itself), with wall
// time as a cross-check.
#include <cinttypes>
#include <functional>
#include <string>

#include "bench/common.hpp"
#include "cosy/compiler.hpp"
#include "cosy/exec.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

struct Fixture {
  Fixture() : kernel(fs), proc(kernel, "micro"), ext(kernel), shared(1 << 16) {
    fs.set_cost_hook(kernel.charge_hook());
    // A 1 MiB data file for the I/O patterns.
    int fd = proc.open("/data", fs::kOWrOnly | fs::kOCreat);
    std::vector<char> block(4096, 'm');
    for (int i = 0; i < 256; ++i) proc.write(fd, block.data(), block.size());
    proc.close(fd);
  }
  fs::MemFs fs;
  uk::Kernel kernel;
  uk::Proc proc;
  cosy::CosyExtension ext;
  cosy::SharedBuffer shared;
};

struct Row {
  const char* name;
  std::function<void(Fixture&)> classic;
  const char* cosy_src;  // compiled by the Cosy compiler
};

void report(Fixture& f, const Row& row, bench::JsonWriter& json) {
  // Classic.
  std::uint64_t k0 = f.proc.task().times().kernel;
  double classic_wall = bench::time_once([&] { row.classic(f); });
  std::uint64_t classic_units = f.proc.task().times().kernel - k0;

  // Cosy.
  cosy::CompileResult cr = cosy::compile(row.cosy_src);
  if (!cr.ok) {
    std::printf("%-24s COMPILE ERROR: %s\n", row.name, cr.error.c_str());
    return;
  }
  std::uint64_t c0 = f.proc.task().times().kernel;
  double cosy_wall = bench::time_once([&] {
    cosy::CosyResult r = f.ext.execute(f.proc.process(), cr.compound,
                                       f.shared);
    if (r.ret != 0) std::abort();
  });
  std::uint64_t cosy_units = f.proc.task().times().kernel - c0;

  // Kernel work units, the paper's metric.
  json.record(std::string("classic/") + row.name,
              static_cast<double>(classic_units), "units",
              bench::Better::kLower);
  json.record(std::string("cosy/") + row.name,
              static_cast<double>(cosy_units), "units", bench::Better::kLower);

  std::printf("%-24s %12" PRIu64 " %12" PRIu64 " %9.1f%% %9.1f%%\n",
              row.name, classic_units, cosy_units,
              bench::improvement_pct(static_cast<double>(classic_units),
                                     static_cast<double>(cosy_units)),
              bench::improvement_pct(classic_wall, cosy_wall));
}

}  // namespace

int main() {
  bench::print_title("E3", "Cosy micro-benchmarks (paper: individual system "
                           "calls sped up 40-90%)");
  bench::JsonWriter json("bench_cosy_micro");
  std::printf("%-24s %12s %12s %10s %10s\n", "pattern", "classic(u)",
              "cosy(u)", "units%", "wall%");

  std::vector<Row> rows;

  rows.push_back(Row{
      "getpid x1000",
      [](Fixture& f) {
        for (int i = 0; i < 1000; ++i) f.proc.getpid();
      },
      "for (int i = 0; i < 1000; i = i + 1) { getpid(); } return 0;"});

  rows.push_back(Row{
      "read 4KiB x256",
      [](Fixture& f) {
        int fd = f.proc.open("/data", fs::kORdOnly);
        std::vector<char> buf(4096);
        for (int i = 0; i < 256; ++i) {
          f.proc.read(fd, buf.data(), buf.size());
        }
        f.proc.close(fd);
      },
      "int fd = open(\"/data\", O_RDONLY);"
      "for (int i = 0; i < 256; i = i + 1) { read(fd, @0, 4096); }"
      "close(fd); return 0;"});

  rows.push_back(Row{
      "lseek+read 1KiB x256",
      [](Fixture& f) {
        int fd = f.proc.open("/data", fs::kORdOnly);
        std::vector<char> buf(1024);
        for (int i = 0; i < 256; ++i) {
          f.proc.lseek(fd, (i * 37 % 1000) * 1024, fs::kSeekSet);
          f.proc.read(fd, buf.data(), buf.size());
        }
        f.proc.close(fd);
      },
      "int fd = open(\"/data\", O_RDONLY);"
      "for (int i = 0; i < 256; i = i + 1) {"
      "  lseek(fd, (i * 37 % 1000) * 1024, SEEK_SET);"
      "  read(fd, @0, 1024);"
      "}"
      "close(fd); return 0;"});

  rows.push_back(Row{
      "write 1KiB x256",
      [](Fixture& f) {
        int fd = f.proc.open("/wout", fs::kOWrOnly | fs::kOCreat);
        std::vector<char> buf(1024, 'w');
        for (int i = 0; i < 256; ++i) {
          f.proc.write(fd, buf.data(), buf.size());
        }
        f.proc.close(fd);
      },
      "int fd = open(\"/wout2\", O_WRONLY + O_CREAT);"
      "for (int i = 0; i < 256; i = i + 1) { write(fd, @0, 1024); }"
      "close(fd); return 0;"});

  rows.push_back(Row{
      "stat x256",
      [](Fixture& f) {
        fs::StatBuf st;
        for (int i = 0; i < 256; ++i) f.proc.stat("/data", &st);
      },
      "for (int i = 0; i < 256; i = i + 1) { stat(\"/data\", @0); }"
      "return 0;"});

  rows.push_back(Row{
      "open-fstat-close x128",
      [](Fixture& f) {
        fs::StatBuf st;
        for (int i = 0; i < 128; ++i) {
          int fd = f.proc.open("/data", fs::kORdOnly);
          f.proc.fstat(fd, &st);
          f.proc.close(fd);
        }
      },
      "for (int i = 0; i < 128; i = i + 1) {"
      "  int fd = open(\"/data\", O_RDONLY);"
      "  fstat(fd, @0);"
      "  close(fd);"
      "}"
      "return 0;"});

  rows.push_back(Row{
      "open-read-close x128",
      [](Fixture& f) {
        std::vector<char> buf(4096);
        for (int i = 0; i < 128; ++i) {
          int fd = f.proc.open("/data", fs::kORdOnly);
          f.proc.read(fd, buf.data(), buf.size());
          f.proc.close(fd);
        }
      },
      "for (int i = 0; i < 128; i = i + 1) {"
      "  int fd = open(\"/data\", O_RDONLY);"
      "  read(fd, @0, 4096);"
      "  close(fd);"
      "}"
      "return 0;"});

  for (auto& row : rows) {
    Fixture f;  // fresh kernel per pattern for clean accounting
    report(f, row, json);
  }
  usk::bench::print_note("units = kernel work units charged to the task; "
                         "one compound replaces N boundary crossings");
  return 0;
}
