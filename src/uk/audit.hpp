// System-call audit log (the strace / Linux 2.6 audit analogue).
//
// Paper §2.2: "The first step in finding system call patterns was to
// collect logs of system calls ... using a combination of strace and the
// system call auditing support in Linux 2.6." Every dispatched syscall is
// recorded here; the consolidation module mines these records into the
// weighted syscall graph.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "base/errno.hpp"
#include "base/percpu.hpp"
#include "uk/syscall.hpp"

namespace usk::uk {

struct AuditRecord {
  std::uint32_t pid = 0;
  Sys nr = Sys::kGetpid;
  SysRet ret = 0;
  std::uint32_t bytes_in = 0;   ///< copied from user for this call
  std::uint32_t bytes_out = 0;  ///< copied to user for this call
};

/// SMP note: each dispatching thread appends to its own per-CPU buffer
/// (no lock, no shared cache line on the syscall path); records() merges
/// the buffers at a quiescent point -- after worker threads joined --
/// exactly like a real kernel draining per-CPU audit backlogs. On a single
/// thread everything lands in one slot, so record order is preserved and
/// the consolidation miner still sees the paper's ordered syscall stream.
class Audit {
 public:
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const AuditRecord& r) {
    if (enabled()) buffers_.local().push_back(r);
  }

  /// Merged view of every CPU's buffer (rebuilt per call; the reference
  /// stays valid until the next records()/clear()). Quiescent-point read.
  [[nodiscard]] const std::vector<AuditRecord>& records() const {
    merged_.clear();
    buffers_.for_each([&](const std::vector<AuditRecord>& b) {
      merged_.insert(merged_.end(), b.begin(), b.end());
    });
    return merged_;
  }

  void clear() {
    buffers_.for_each([](std::vector<AuditRecord>& b) { b.clear(); });
    merged_.clear();
  }

  /// Total user<->kernel bytes across all recorded calls.
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    buffers_.for_each([&](const std::vector<AuditRecord>& b) {
      for (const auto& r : b) sum += r.bytes_in + r.bytes_out;
    });
    return sum;
  }

 private:
  std::atomic<bool> enabled_{false};
  base::PerCpu<std::vector<AuditRecord>> buffers_;
  mutable std::vector<AuditRecord> merged_;
};

}  // namespace usk::uk
