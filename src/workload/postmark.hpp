// PostMark (Katcher, NetApp TR3022) reimplemented over the simulated
// kernel's system-call interface.
//
// The paper uses PostMark as its metadata-heavy I/O benchmark (§3.3 event
// monitor, §3.4 KGCC). The workload: create a pool of small files, run
// transactions that pair a read-or-append with a create-or-delete, then
// delete everything. All operations are real syscalls through the
// boundary, so dcache_lock instrumentation and filesystem overheads show
// up exactly as they would under the original benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "uk/userlib.hpp"

namespace usk::workload {

struct PostMarkConfig {
  std::uint64_t seed = 42;
  std::size_t file_count = 500;
  std::size_t transactions = 5000;
  std::size_t min_size = 500;
  std::size_t max_size = 9770;   // PostMark's default 500..9.77k
  std::string dir = "/pm";
};

struct PostMarkReport {
  std::uint64_t created = 0;
  std::uint64_t deleted = 0;
  std::uint64_t reads = 0;
  std::uint64_t appends = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t errors = 0;
};

class PostMark {
 public:
  explicit PostMark(PostMarkConfig cfg = PostMarkConfig{}) : cfg_(cfg) {}

  /// Run the full benchmark as process `p`. The target directory is
  /// created, populated, transacted upon, and emptied.
  PostMarkReport run(uk::Proc& p);

 private:
  std::string file_path(std::size_t idx) const;
  void create_file(uk::Proc& p, std::size_t idx, base::Rng& rng,
                   PostMarkReport* rep);

  PostMarkConfig cfg_;
  std::vector<std::size_t> live_;  // indices of existing files
  std::size_t next_idx_ = 0;
};

}  // namespace usk::workload
