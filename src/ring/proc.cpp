// /proc/ring: the ring subsystem's observation surface.
//
//   /ring/rings  one line per live ring: geometry, queue depths, refs
//   /ring/stats  aggregate counters over live + retired rings
//
// Render-on-open like /net/* and /sup/*: snapshot under the table lock,
// format outside it.
#include <algorithm>
#include <cstdio>

#include "base/appendf.hpp"
#include "fs/procfs.hpp"
#include "ring/ring.hpp"

namespace usk::ring {

using base::appendf;

std::string RingDev::format_rings() const {
  struct Row {
    fs::InodeNum ino;
    std::uint32_t owner;
    std::size_t sq_cap, cq_cap, data;
    std::uint64_t sq_depth;
    std::size_t cq_depth;
    std::uint32_t refs;
    bool supervised;
    RingStats st;
  };
  std::vector<Row> rows;
  {
    std::lock_guard lk(tab_mu_);
    rows.reserve(rings_.size());
    for (const auto& [ino, r] : rings_) {
      std::uint64_t pushed = r->sq_.pushed();
      std::uint64_t popped = r->sq_.popped();
      rows.push_back(Row{ino, r->owner_pid(), r->sq_capacity(),
                         r->cq_capacity(), r->data_bytes(),
                         pushed > popped ? pushed - popped : 0, r->cq_size(),
                         r->refs_.load(std::memory_order_relaxed),
                         r->sup_.load(std::memory_order_acquire) != nullptr,
                         r->stats()});
    }
  }
  std::string out;
  appendf(out,
          "# ino owner sq_cap cq_cap data_bytes sq_depth cq_depth refs "
          "sup enters sqes chains\n");
  for (const Row& r : rows) {
    appendf(out, "%llu %u %zu %zu %zu %llu %zu %u %d %llu %llu %llu\n",
            static_cast<unsigned long long>(r.ino), r.owner, r.sq_cap,
            r.cq_cap, r.data, static_cast<unsigned long long>(r.sq_depth),
            r.cq_depth, r.refs, r.supervised ? 1 : 0,
            static_cast<unsigned long long>(r.st.enters),
            static_cast<unsigned long long>(r.st.sqes),
            static_cast<unsigned long long>(r.st.chains));
  }
  return out;
}

RingStats RingDev::total_stats() const {
  RingStats total;
  std::lock_guard lk(tab_mu_);
  total += retired_;
  for (const auto& [ino, r] : rings_) total += r->stats();
  return total;
}

std::string RingDev::format_stats() const {
  const RingStats s = total_stats();
  const std::size_t live = live_rings();
  std::string out;
  appendf(out, "rings_live %zu\n", live);
  for (const auto& [name, field] : kRingCounters) {
    appendf(out, "%s %llu\n", name, static_cast<unsigned long long>(s.*field));
  }
  return out;
}

Errno RingDev::register_proc(fs::ProcFs& pfs) {
  proc_ = fs::ProcFs::Registration(pfs);
  proc_.add_file("/ring/rings", [this] { return format_rings(); });
  proc_.add_file("/ring/stats", [this] { return format_stats(); });
  return proc_.status();
}

}  // namespace usk::ring
