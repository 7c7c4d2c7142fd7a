// E4 (paper §2.3): Cosy application benchmarks.
//
// "we modified popular user applications that exhibit sequential or random
// access patterns (e.g., a database) to use Cosy. For CPU bound
// applications, with very minimal code changes, we achieved a performance
// speedup of up to 20-80% over that of unmodified versions."
//
// Two applications, each in an unmodified and a Cosy variant, at three
// compute intensities (work per record processed): the improvement shrinks
// as user-mode compute dilutes the syscall savings -- that dilution is
// where the paper's 20% end of the range comes from.
#include <cinttypes>
#include <algorithm>
#include <cstring>

#include "bench/common.hpp"
#include "cosy/compiler.hpp"
#include "cosy/exec.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

constexpr std::size_t kRecordSize = 512;
constexpr std::size_t kRecords = 4096;  // 2 MiB table
constexpr int kProbes = 2000;

struct Fixture {
  Fixture() : kernel(fs), proc(kernel, "app"), ext(kernel), shared(1 << 16) {
    fs.set_cost_hook(kernel.charge_hook());
    int fd = proc.open("/table.db", fs::kOWrOnly | fs::kOCreat);
    std::vector<char> rec(kRecordSize, 'r');
    for (std::size_t i = 0; i < kRecords; ++i) {
      proc.write(fd, rec.data(), rec.size());
    }
    proc.close(fd);
  }
  fs::MemFs fs;
  uk::Kernel kernel;
  uk::Proc proc;
  cosy::CosyExtension ext;
  cosy::SharedBuffer shared;
};

/// Unmodified database: lseek+read per probed record, then user compute.
double run_db_classic(Fixture& f, std::uint64_t compute_units) {
  return bench::time_once([&] {
    int fd = f.proc.open("/table.db", fs::kORdOnly);
    std::vector<char> rec(kRecordSize);
    std::uint64_t key = 12345;
    for (int i = 0; i < kProbes; ++i) {
      key = key * 6364136223846793005ull + 1442695040888963407ull;
      std::uint64_t slot = key % kRecords;
      f.proc.lseek(fd, static_cast<std::int64_t>(slot * kRecordSize),
                   fs::kSeekSet);
      f.proc.read(fd, rec.data(), rec.size());
      f.proc.charge_user(compute_units);  // process the record
    }
    f.proc.close(fd);
  });
}

/// Cosy database: batches of 32 probes per compound (the COSY_START /
/// COSY_END region), record processing stays in user space on the shared
/// buffer -- the paper's "very minimal code changes".
double run_db_cosy(Fixture& f, std::uint64_t compute_units) {
  constexpr int kBatch = 32;
  // The compound reads records slot-by-slot into consecutive shared
  // slots; slot indices are passed via locals preloaded from... the
  // compiler subset has no arrays, so the batch compound recomputes the
  // same LCG the app uses, seeded from local 0.
  cosy::CompileResult cr = cosy::compile(
      "int fd = open(\"/table.db\", O_RDONLY);"
      "int key = 12345;"
      "for (int i = 0; i < 32; i = i + 1) {"
      "  key = key * 25214903917 + 11;"
      "  if (key < 0) { key = 0 - key; }"
      "  int slot = key % 4096;"
      "  lseek(fd, slot * 512, SEEK_SET);"
      "  read(fd, @(i * 512), 512);"
      "}"
      "close(fd);"
      "return key;");
  if (!cr.ok) {
    std::fprintf(stderr, "compile: %s\n", cr.error.c_str());
    std::abort();
  }
  // The compound is re-executed per batch; the LCG continues from the
  // returned key by re-encoding the "key = 12345" initializer op in the
  // (shared-memory) compound buffer -- no extra crossing.
  cosy::Compound compound = cr.compound;
  std::size_t seed_op = compound.ops.size();
  for (std::size_t i = 0; i < compound.ops.size(); ++i) {
    const cosy::OpRecord& op = compound.ops[i];
    if (op.op == cosy::Op::kSet &&
        op.args[0].kind == cosy::ArgKind::kImm && op.args[0].a == 12345) {
      seed_op = i;
      break;
    }
  }
  if (seed_op == compound.ops.size()) std::abort();
  return bench::time_once([&] {
    std::int64_t key = 12345;
    for (int b = 0; b < kProbes / kBatch; ++b) {
      compound.ops[seed_op].args[0] = cosy::imm(key);
      cosy::CosyResult r = f.ext.execute(f.proc.process(), compound,
                                         f.shared);
      if (r.ret != 0) std::abort();
      key = r.locals[cosy::kReturnLocal];
      // Process the 32 records straight out of the shared buffer.
      for (int i = 0; i < kBatch; ++i) {
        f.proc.charge_user(compute_units);
      }
    }
  });
}

/// Unmodified scan (grep-like): sequential 4 KiB reads + per-block compute.
double run_scan_classic(Fixture& f, std::uint64_t compute_units) {
  return bench::time_once([&] {
    int fd = f.proc.open("/table.db", fs::kORdOnly);
    std::vector<char> buf(4096);
    SysRet n;
    while ((n = f.proc.read(fd, buf.data(), buf.size())) > 0) {
      f.proc.charge_user(compute_units);
    }
    f.proc.close(fd);
  });
}

double run_scan_cosy(Fixture& f, std::uint64_t compute_units) {
  // 64 blocks per compound; the app scans them from shared memory.
  cosy::CompileResult cr = cosy::compile(
      "int fd = open(\"/table.db\", O_RDONLY);"
      "lseek(fd, 0, SEEK_SET);"
      "int total = 0;"
      "int off = 0;"
      "int n = 1;"
      "while (n > 0) {"
      "  n = read(fd, @(off * 4096), 4096);"
      "  total = total + n;"
      "  off = (off + 1) % 16;"
      "}"
      "close(fd);"
      "return total;");
  if (!cr.ok) std::abort();
  return bench::time_once([&] {
    cosy::CosyResult r = f.ext.execute(f.proc.process(), cr.compound,
                                       f.shared);
    if (r.ret != 0) std::abort();
    std::size_t blocks = kRecords * kRecordSize / 4096;
    for (std::size_t i = 0; i < blocks; ++i) {
      f.proc.charge_user(compute_units);
    }
  });
}

void report(bench::JsonWriter& json, const char* app, const char* intensity,
            std::uint64_t compute_units,
            double (*classic)(Fixture&, std::uint64_t),
            double (*cosy)(Fixture&, std::uint64_t)) {
  Fixture f;
  // Best of three to keep host-load noise out of the comparison.
  double tc = 1e99, tz = 1e99;
  for (int i = 0; i < 3; ++i) {
    tc = std::min(tc, classic(f, compute_units));
    tz = std::min(tz, cosy(f, compute_units));
  }
  std::printf("%-18s %-14s %12.4f %12.4f %9.1f%%\n", app, intensity, tc, tz,
              usk::bench::improvement_pct(tc, tz));
  // Wall seconds of one probe/scan pass for the classic and Cosy variants
  // of one (application, compute intensity) cell.
  std::string base = std::string(app) + "/" + intensity;
  json.record("classic/" + base, tc, "s", bench::Better::kLower);
  json.record("cosy/" + base, tz, "s", bench::Better::kLower);
}

}  // namespace

int main() {
  bench::print_title("E4", "Cosy application benchmarks (paper: 20-80% "
                           "speedup for CPU-bound apps)");
  std::printf("%-18s %-14s %12s %12s %10s\n", "application", "compute",
              "classic(s)", "cosy(s)", "speedup%");
  bench::JsonWriter json("bench_cosy_apps");

  report(json, "db random-probe", "light", 200, run_db_classic, run_db_cosy);
  report(json, "db random-probe", "medium", 2000, run_db_classic, run_db_cosy);
  report(json, "db random-probe", "heavy", 8000, run_db_classic, run_db_cosy);
  report(json, "grep-like scan", "light", 200, run_scan_classic, run_scan_cosy);
  report(json, "grep-like scan", "medium", 2000, run_scan_classic, run_scan_cosy);
  report(json, "grep-like scan", "heavy", 8000, run_scan_classic, run_scan_cosy);

  bench::print_note("record processing stays in user space (shared-buffer "
                    "zero copy); heavier compute dilutes the savings toward "
                    "the paper's 20% end");
  return 0;
}
