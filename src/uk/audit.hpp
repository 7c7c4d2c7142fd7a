// The gateway record, its subscribers, and the system-call audit log.
//
// Every Kernel::Scope epilogue fills ONE SyscallRecord and hands it to
// the subscribers of its Kernel (eBPF's attach-point model: no
// process-global hook). The audit log is one; each sup::Supervisor is
// another. Paper §2.2: "The first step in finding system call patterns
// was to collect logs of system calls ... using a combination of strace
// and the system call auditing support in Linux 2.6." The consolidation
// module mines the audit records into the weighted syscall graph.
#pragma once

#include <cstdint>
#include <vector>

#include "base/errno.hpp"
#include "base/percpu.hpp"
#include "uk/syscall.hpp"

namespace usk::uk {

struct SyscallRecord {
  std::uint32_t pid = 0;
  Sys nr = Sys::kGetpid;
  SysRet ret = 0;
  std::uint32_t bytes_in = 0;   ///< copied from user for this call
  std::uint32_t bytes_out = 0;  ///< copied to user for this call
  std::uint64_t kunits = 0;     ///< simulated kernel work units charged
  std::uint64_t wall_ns = 0;    ///< real time spent inside the gateway
};

/// An observer of every syscall one Kernel retires. on_syscall runs on
/// the dispatching thread after the crossing, on several at once.
class SyscallSubscriber {
 public:
  virtual void on_syscall(const SyscallRecord& r) = 0;

 protected:
  ~SyscallSubscriber() = default;
};

class Kernel;

/// SMP note: each dispatching thread appends to its own per-CPU buffer
/// (no lock, no shared cache line on the syscall path); records() merges
/// the buffers at a quiescent point -- after worker threads joined --
/// exactly like a real kernel draining per-CPU audit backlogs. On a single
/// thread everything lands in one slot, so record order is preserved and
/// the consolidation miner still sees the paper's ordered syscall stream.
class Audit final : public SyscallSubscriber {
 public:
  explicit Audit(Kernel& k) : k_(k) {}

  /// Subscribe the log to its kernel / unsubscribe it (kernel.cpp).
  void enable();
  void disable();

  void on_syscall(const SyscallRecord& r) override {
    buffers_.local().push_back(r);
  }

  /// Merged view of every CPU's buffer (rebuilt per call; the reference
  /// stays valid until the next records()/clear()). Quiescent-point read.
  [[nodiscard]] const std::vector<SyscallRecord>& records() const {
    merged_.clear();
    buffers_.for_each([&](const std::vector<SyscallRecord>& b) {
      merged_.insert(merged_.end(), b.begin(), b.end());
    });
    return merged_;
  }

  void clear() {
    buffers_.for_each([](std::vector<SyscallRecord>& b) { b.clear(); });
    merged_.clear();
  }

 private:
  Kernel& k_;
  base::PerCpu<std::vector<SyscallRecord>> buffers_;
  mutable std::vector<SyscallRecord> merged_;
};

}  // namespace usk::uk
