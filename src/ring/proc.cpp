// /proc/ring: the ring subsystem's observation surface.
//
//   /ring/rings  one line per live ring: geometry, queue depths, refs
//   /ring/stats  aggregate counters over live + retired rings
//
// Render-on-open like /net/* and /sup/*: snapshot the ring table under
// its lock, format outside it.
#include <algorithm>
#include <cstdio>

#include "base/appendf.hpp"
#include "fs/procfs.hpp"
#include "ring/ring.hpp"

namespace usk::ring {

using base::appendf;

std::string RingDev::format_rings() const {
  std::string out;
  appendf(out,
          "# ino owner sq_cap cq_cap data_bytes sq_depth cq_depth refs "
          "sup enters sqes chains\n");
  for (const auto& [r, fds] : rings_.snapshot()) {
    const std::uint64_t pushed = r->sq_.pushed();
    const std::uint64_t popped = r->sq_.popped();
    const RingStats st = r->stats();
    appendf(out, "%llu %u %zu %zu %zu %llu %zu %d %d %llu %llu %llu\n",
            static_cast<unsigned long long>(r->ino()), r->owner_pid(),
            r->sq_capacity(), r->cq_capacity(), r->data_bytes(),
            static_cast<unsigned long long>(pushed > popped ? pushed - popped
                                                            : 0),
            r->cq_size(), fds,
            r->sup_.load(std::memory_order_acquire) != nullptr ? 1 : 0,
            static_cast<unsigned long long>(st.enters),
            static_cast<unsigned long long>(st.sqes),
            static_cast<unsigned long long>(st.chains));
  }
  return out;
}

RingStats RingDev::total_stats() const {
  std::lock_guard lk(retired_mu_);
  RingStats total = retired_;
  for (const auto& [r, fds] : rings_.snapshot()) total += r->stats();
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
