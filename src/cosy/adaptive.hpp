// Profiling-driven kernel offload (paper §2.4 future work).
//
// "In the future, we would like to modify Cosy to automate the job of
// deciding which code should be moved to the kernel using profiling."
//
// An AdaptiveRegion wraps one code region available in two forms: the
// classic user-level implementation (plain syscalls) and its compiled Cosy
// compound. The first few invocations alternate between the two while the
// profiler measures the kernel work units each costs; after calibration
// the cheaper implementation is locked in. A region whose compound is NOT
// profitable (e.g., decode overhead exceeds the crossings saved) stays in
// user space -- the decision the paper wanted automated.
//
// The caller guarantees the two implementations are observationally
// equivalent (same filesystem effects); the profiler only chooses between
// them.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "cosy/exec.hpp"
#include "uk/userlib.hpp"

namespace usk::cosy {

class AdaptiveRegion {
 public:
  using ClassicFn = std::function<void(uk::Proc&)>;

  enum class Decision {
    kProfiling,  ///< still alternating and measuring
    kClassic,    ///< user-level implementation won
    kCosy,       ///< in-kernel compound won
  };

  struct Profile {
    std::uint64_t classic_runs = 0;
    std::uint64_t cosy_runs = 0;
    std::uint64_t classic_units = 0;  ///< total kernel units
    std::uint64_t cosy_units = 0;

    [[nodiscard]] double classic_avg() const {
      return classic_runs ? static_cast<double>(classic_units) /
                                static_cast<double>(classic_runs)
                          : 0.0;
    }
    [[nodiscard]] double cosy_avg() const {
      return cosy_runs ? static_cast<double>(cosy_units) /
                             static_cast<double>(cosy_runs)
                       : 0.0;
    }
  };

  /// `calibration_runs` invocations of EACH implementation are profiled
  /// before the decision is made.
  AdaptiveRegion(CosyExtension& ext, SharedBuffer& shared, std::string name,
                 ClassicFn classic, Compound compound,
                 std::uint64_t calibration_runs = 3)
      : ext_(ext),
        shared_(shared),
        name_(std::move(name)),
        classic_(std::move(classic)),
        compound_(std::move(compound)),
        calibration_runs_(calibration_runs) {}

  /// Put the region under a supervisor: every run() becomes one
  /// Supervisor::invoke whose classic form is classic_. Quarantine serves
  /// classic_; a re-admission probe re-isolates every installed function
  /// and runs the compound; and a compound failure while supervised is
  /// RESCUED by classic_ instead of permanently locking the region to
  /// kClassic (the breaker owns that policy now). In the kernel route the
  /// profiler still picks the form. `id` must be the id `ext` is
  /// supervised under.
  void supervise(sup::Supervisor* s, sup::ExtId id) {
    sup_ = s;
    sup_id_ = id;
    ext_.supervise(s, id);
  }

  /// Execute the region once, the currently-chosen way. Returns the
  /// implementation that served it.
  Decision run(uk::Proc& proc) {
    // The profiler's pick: alternate while calibrating (classic first),
    // then the locked-in form.
    const bool pick_classic =
        decision_ == Decision::kClassic ||
        (decision_ == Decision::kProfiling &&
         profile_.classic_runs <= profile_.cosy_runs);
    const std::uint64_t k0 = proc.task().times().kernel;
    Decision ran = Decision::kClassic;
    bool profiled = sup_ == nullptr;  // ran the profiler's pick
    SysRet ret = 0;                   // the compound's result
    auto classic = [&] {
      classic_(proc);
      return SysRet{0};
    };
    auto compound = [&] {
      ret = ext_.execute(proc.process(), compound_, shared_).ret;
      if (ret == 0) ran = Decision::kCosy;
      return ret;
    };
    if (sup_ == nullptr) {
      if (pick_classic) {
        classic();
      } else {
        compound();
      }
    } else {
      sup_->invoke(
          sup_id_, &proc.task(),
          [&](sup::InvocationGuard&,
              sup::Route route) -> sup::Supervisor::Attempt {
            if (route == sup::Route::kProbe) {
              ext_.re_isolate_all();  // full instrumentation: no trust
            } else {
              profiled = true;
              if (pick_classic) return {classic(), false};
            }
            const SysRet r = compound();
            return {r, r != 0};
          },
          classic);
    }
    if (ret != 0) {
      // Supervised, classic_ rescued the run and the breaker decides
      // what comes next. Unsupervised, a failing compound can never be
      // the offload choice.
      if (sup_ == nullptr) decision_ = Decision::kClassic;
      return ran;
    }
    if (profiled && decision_ == Decision::kProfiling) {
      const std::uint64_t units = proc.task().times().kernel - k0;
      if (pick_classic) {
        profile_.classic_units += units;
        ++profile_.classic_runs;
      } else {
        profile_.cosy_units += units;
        ++profile_.cosy_runs;
      }
      maybe_decide();
    }
    return ran;
  }

  [[nodiscard]] Decision decision() const { return decision_; }
  [[nodiscard]] const Profile& profile() const { return profile_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  void maybe_decide() {
    if (profile_.classic_runs >= calibration_runs_ &&
        profile_.cosy_runs >= calibration_runs_) {
      decision_ = profile_.cosy_avg() < profile_.classic_avg()
                      ? Decision::kCosy
                      : Decision::kClassic;
      base::klogf(base::LogLevel::kInfo,
                  "cosy: region '%s' -> %s (classic %.0f u, cosy %.0f u)",
                  name_.c_str(),
                  decision_ == Decision::kCosy ? "kernel offload"
                                               : "stays in user space",
                  profile_.classic_avg(), profile_.cosy_avg());
    }
  }

  CosyExtension& ext_;
  SharedBuffer& shared_;
  std::string name_;
  ClassicFn classic_;
  Compound compound_;
  std::uint64_t calibration_runs_;
  Profile profile_;
  Decision decision_ = Decision::kProfiling;
  sup::Supervisor* sup_ = nullptr;
  sup::ExtId sup_id_ = -1;
};

}  // namespace usk::cosy
