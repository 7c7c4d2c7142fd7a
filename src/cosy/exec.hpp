// The Cosy Kernel Extension: decode + execute compounds (paper §2.3).
//
// "The final component is the Cosy kernel extension, which is the heart of
// the Cosy framework. It decodes each operation within a compound and then
// executes each operation in turn. The system call invocation by the Cosy
// kernel module is the same as a normal process and hence all the
// necessary checks are performed."
//
// sys_cosy costs exactly ONE boundary crossing; every syscall op inside
// runs the kernel's own handler (Kernel::dispatch_nested) in kernel-buffer
// mode, so it behaves exactly like the classic call while reads/writes
// move data through the shared buffer with no user copies. Back-edges are
// preemption points, so the scheduler watchdog terminates compounds that
// loop forever.
#pragma once

#include "cosy/compound.hpp"
#include "cosy/shared_buffer.hpp"
#include "cosy/vm.hpp"
#include "sup/supervisor.hpp"
#include "uk/kernel.hpp"

namespace usk::cosy {

struct ExecStats {
  std::uint64_t compounds = 0;
  std::uint64_t ops_executed = 0;
  std::uint64_t back_edges = 0;
  std::uint64_t validation_failures = 0;
  std::uint64_t aborted = 0;  ///< compounds stopped early (error/kill)
  std::uint64_t fault_aborts = 0;   ///< kfail-injected mid-compound aborts
  std::uint64_t fds_rolled_back = 0;  ///< fds closed by abort cleanup
  std::uint64_t trust_promotions = 0;  ///< functions switched to fast mode
  std::uint64_t trust_demotions = 0;   ///< violators re-isolated
  std::uint64_t quota_aborts = 0;  ///< supervisor quota overruns (EDQUOT)
  std::uint64_t watchdog_rollbacks = 0;  ///< fds rolled back on kill paths
};

/// Result of one compound execution. `results` holds each op's SysRet, in
/// op order, readable by the user afterwards (the compound buffer is
/// shared memory).
struct CosyResult {
  SysRet ret = 0;                 ///< 0 / first error as -errno
  std::size_t ops_run = 0;
  std::vector<SysRet> results;    ///< per-op results
  std::int64_t locals[kMaxLocals] = {};
};

class CosyExtension {
 public:
  explicit CosyExtension(uk::Kernel& k)
      : k_(k), funcs_(gdt_) {}

  /// The sys_cosy entry point: one crossing for the whole compound.
  CosyResult execute(uk::Process& p, const Compound& c, SharedBuffer& shared);

  /// Execute a serialized compound image (the byte form user space places
  /// in the shared compound buffer). A malformed image costs one crossing
  /// and returns EINVAL, like any rejected compound.
  CosyResult execute_image(uk::Process& p,
                           const std::vector<std::uint8_t>& image,
                           SharedBuffer& shared);

  /// Install a user function callable from compounds via kCallFunc.
  int install_function(std::vector<VmInstr> code, std::size_t data_size,
                       SafetyMode mode, std::string name) {
    return funcs_.install(std::move(code), data_size, mode, std::move(name));
  }
  [[nodiscard]] FunctionTable& functions() { return funcs_; }
  [[nodiscard]] seg::DescriptorTable& gdt() { return gdt_; }
  [[nodiscard]] const ExecStats& stats() const { return stats_; }

  /// Heuristic trust (paper §2.4 future work): "The behavior of untrusted
  /// code will be observed for some specific time period and once the
  /// untrusted code is considered safe, the security checks will be
  /// dynamically turned off." After `clean_runs` error-free executions an
  /// isolated function is switched to the cheap data-segment-only mode;
  /// any safety violation re-isolates it and resets its record. 0 disables
  /// automatic trust.
  void set_trust_threshold(std::uint64_t clean_runs) {
    trust_threshold_ = clean_runs;
  }

  /// Put this extension under a supervisor. Every execute() then runs
  /// under an InvocationGuard (unless the caller already opened one for
  /// the same extension, e.g. a re-admission probe): fuel, fd and
  /// work-unit quotas are enforced mid-compound with full fd rollback,
  /// and violations / trust re-isolations feed the circuit breaker.
  void supervise(sup::Supervisor* s, sup::ExtId id) {
    sup_ = s;
    sup_id_ = id;
  }
  [[nodiscard]] sup::Supervisor* supervisor() const { return sup_; }

  /// Drop every installed function back to full isolation (quarantine
  /// exit / probe entry: earned trust does not survive a quarantine).
  void re_isolate_all() {
    for (std::size_t i = 0; i < funcs_.size(); ++i) {
      VmFunction& fn = funcs_.at(i);
      if (fn.mode() == SafetyMode::kDataSegmentOnly) {
        fn.set_mode(SafetyMode::kIsolatedSegments);
        ++stats_.trust_demotions;
      }
      fn.clean_runs = 0;
    }
  }

 private:
  uk::Kernel& k_;
  seg::DescriptorTable gdt_;
  FunctionTable funcs_;
  static constexpr VmCosts kVmCosts{};
  /// Per-op decode cost in work units ("the overhead to decode a compound
  /// increases with the complexity of the language").
  static constexpr std::uint64_t kDecodeCost = 25;
  std::uint64_t trust_threshold_ = 0;
  sup::Supervisor* sup_ = nullptr;
  sup::ExtId sup_id_ = -1;
  ExecStats stats_;
};

}  // namespace usk::cosy
