// E9 (paper §2.2): consolidated system calls vs. their classic sequences.
//
// "We found several promising system call patterns, including
// open-read-close, open-write-close, open-fstat ... The main savings for
// the first three combinations would be the reduced number of context
// switches." The paper's conclusion headlines up to 63% improvement for
// consolidated sequences.
//
// For each pattern: classic = the 3-call sequence; consolidated = the new
// single system call. Rows report crossings, kernel work units, and wall
// time over N repetitions.
#include <cinttypes>
#include <functional>

#include "bench/common.hpp"
#include "consolidation/newcalls.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

constexpr int kReps = 2000;

struct Fixture {
  Fixture() : kernel(fs), proc(kernel, "e9") {
    fs.set_cost_hook(kernel.charge_hook());
    int fd = proc.open("/target", fs::kOWrOnly | fs::kOCreat);
    std::vector<char> data(2048, 't');
    proc.write(fd, data.data(), data.size());
    proc.close(fd);
  }
  fs::MemFs fs;
  uk::Kernel kernel;
  uk::Proc proc;
};

struct Measure {
  std::uint64_t crossings;
  std::uint64_t units;
  double wall;
};

Measure measure(Fixture& f, const std::function<void()>& fn) {
  Measure m;
  std::uint64_t c0 = f.kernel.boundary().stats().crossings;
  std::uint64_t k0 = f.proc.task().times().kernel;
  m.wall = bench::time_once(fn);
  m.crossings = f.kernel.boundary().stats().crossings - c0;
  m.units = f.proc.task().times().kernel - k0;
  return m;
}

bench::JsonWriter& json() {
  static bench::JsonWriter w("bench_consolidated_calls");
  return w;
}

void report(const char* name, Fixture& f, const std::function<void()>& classic,
            const std::function<void()>& consolidated) {
  Measure c = measure(f, classic);
  Measure n = measure(f, consolidated);
  json().record(std::string("classic/") + name, c.wall / kReps * 1e9, "ns",
                bench::Better::kLower);
  json().record(std::string("consolidated/") + name, n.wall / kReps * 1e9,
                "ns", bench::Better::kLower);
  std::printf("%-18s %9" PRIu64 " %9" PRIu64 " %11" PRIu64 " %11" PRIu64
              " %8.1f%% %8.1f%%\n",
              name, c.crossings, n.crossings, c.units, n.units,
              bench::improvement_pct(static_cast<double>(c.units),
                                     static_cast<double>(n.units)),
              bench::improvement_pct(c.wall, n.wall));
}

}  // namespace

int main() {
  bench::print_title("E9", "consolidated calls vs classic sequences (paper: "
                           "up to 63% improvement)");
  std::printf("%-18s %9s %9s %11s %11s %9s %9s\n", "pattern", "seq-cross",
              "new-cross", "seq-units", "new-units", "units%", "wall%");

  {
    Fixture f;
    char buf[1024];
    report(
        "open-read-close", f,
        [&] {
          for (int i = 0; i < kReps; ++i) {
            int fd = f.proc.open("/target", fs::kORdOnly);
            f.proc.read(fd, buf, sizeof(buf));
            f.proc.close(fd);
          }
        },
        [&] {
          for (int i = 0; i < kReps; ++i) {
            consolidation::sys_open_read_close(f.kernel, f.proc.process(),
                                               "/target", buf, sizeof(buf),
                                               0);
          }
        });
  }
  {
    Fixture f;
    char buf[512] = {};
    report(
        "open-write-close", f,
        [&] {
          for (int i = 0; i < kReps; ++i) {
            int fd = f.proc.open("/target", fs::kOWrOnly);
            f.proc.write(fd, buf, sizeof(buf));
            f.proc.close(fd);
          }
        },
        [&] {
          for (int i = 0; i < kReps; ++i) {
            consolidation::sys_open_write_close(f.kernel, f.proc.process(),
                                                "/target", buf, sizeof(buf),
                                                0, 0);
          }
        });
  }
  {
    Fixture f;
    fs::StatBuf st;
    report(
        "open-fstat", f,
        [&] {
          for (int i = 0; i < kReps; ++i) {
            int fd = f.proc.open("/target", fs::kORdOnly);
            f.proc.fstat(fd, &st);
            f.proc.close(fd);
          }
        },
        [&] {
          for (int i = 0; i < kReps; ++i) {
            consolidation::sys_open_fstat(f.kernel, f.proc.process(),
                                          "/target", &st);
          }
        });
  }
  return 0;
}
