// E1 (paper §2.2): readdirplus vs. readdir + per-file stat.
//
// "We benchmarked readdirplus against a program which did a readdir
// followed by stat calls for each file. We increased the number of files
// by powers of 10 from 10 to 100,000 and found that the improvements were
// fairly consistent: elapsed, system, and user times improved 60.6-63.8%,
// 55.7-59.3%, and 82.8-84.0%, respectively."
//
// Metric mapping: "system" = kernel work units charged to the task,
// "user" = user work units (dirent decoding, path building), "elapsed" =
// wall-clock seconds of the whole run on the simulated kernel.
#include <cinttypes>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "consolidation/newcalls.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

// User-mode work the application does per directory entry (paper's test
// program: parse the dirent, build the path, call stat, check errors).
constexpr std::uint64_t kUserPerEntryClassic = 60;
// readdirplus consumers only walk the packed records.
constexpr std::uint64_t kUserPerEntryPlus = 10;

struct Times {
  double elapsed = 0;
  std::uint64_t user = 0;
  std::uint64_t system = 0;
};

Times run_classic(uk::Kernel& kernel, uk::Proc& proc, const char* dir,
                  std::size_t expect) {
  Times t;
  std::uint64_t u0 = proc.task().times().user;
  std::uint64_t k0 = proc.task().times().kernel;
  t.elapsed = bench::time_once([&] {
    auto entries = proc.list_dir(dir, 4096);
    fs::StatBuf st;
    std::string path;
    for (const auto& e : entries) {
      proc.charge_user(kUserPerEntryClassic);
      path.assign(dir);
      path += '/';
      path += e.name;
      proc.stat(path.c_str(), &st);
    }
    if (entries.size() != expect) std::abort();
  });
  t.user = proc.task().times().user - u0;
  t.system = proc.task().times().kernel - k0;
  (void)kernel;
  return t;
}

Times run_plus(uk::Kernel& kernel, uk::Proc& proc, const char* dir,
               std::size_t expect) {
  Times t;
  std::uint64_t u0 = proc.task().times().user;
  std::uint64_t k0 = proc.task().times().kernel;
  t.elapsed = bench::time_once([&] {
    std::vector<std::byte> buf(4096);
    std::uint64_t cookie = 0;
    std::size_t seen = 0;
    for (;;) {
      SysRet n = consolidation::sys_readdirplus(
          kernel, proc.process(), dir, buf.data(), buf.size(), &cookie);
      if (n <= 0) break;
      std::vector<std::pair<uk::UserDirent, fs::StatBuf>> batch;
      uk::decode_dirents_plus(
          std::span(buf.data(), static_cast<std::size_t>(n)), &batch);
      proc.charge_user(kUserPerEntryPlus * batch.size());
      seen += batch.size();
    }
    if (seen != expect) std::abort();
  });
  t.user = proc.task().times().user - u0;
  t.system = proc.task().times().kernel - k0;
  return t;
}

}  // namespace

int main() {
  bench::print_title("E1", "readdirplus vs readdir+stat (paper: elapsed "
                           "60.6-63.8%, system 55.7-59.3%, user 82.8-84.0%)");
  bench::JsonWriter json("bench_readdirplus");
  std::printf("%9s %12s %12s %10s %10s %10s\n", "files", "classic(s)",
              "rdplus(s)", "elapsed%", "system%", "user%");

  for (std::size_t files : {10u, 100u, 1000u, 10000u, 100000u}) {
    fs::MemFs fs;
    uk::Kernel kernel(fs);
    fs.set_cost_hook(kernel.charge_hook());
    uk::Proc proc(kernel, "e1");

    proc.mkdir("/dir");
    char data[64] = {};
    for (std::size_t i = 0; i < files; ++i) {
      std::string p = "/dir/file" + std::to_string(i);
      int fd = proc.open(p.c_str(), fs::kOWrOnly | fs::kOCreat);
      proc.write(fd, data, sizeof(data));
      proc.close(fd);
    }

    Times classic = run_classic(kernel, proc, "/dir", files);
    Times plus = run_plus(kernel, proc, "/dir", files);

    // Wall seconds of each strategy at this directory size.
    json.record("classic/" + std::to_string(files), classic.elapsed, "s",
                bench::Better::kLower);
    json.record("readdirplus/" + std::to_string(files), plus.elapsed, "s",
                bench::Better::kLower);

    std::printf("%9zu %12.4f %12.4f %9.1f%% %9.1f%% %9.1f%%\n", files,
                classic.elapsed, plus.elapsed,
                bench::improvement_pct(classic.elapsed, plus.elapsed),
                bench::improvement_pct(static_cast<double>(classic.system),
                                       static_cast<double>(plus.system)),
                bench::improvement_pct(static_cast<double>(classic.user),
                                       static_cast<double>(plus.user)));
  }
  bench::print_note("system = kernel work units; user = user work units; "
                    "elapsed = wall time on the simulated kernel");
  return 0;
}
