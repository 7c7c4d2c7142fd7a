// The gateway clock: one cheap, calibrated cycle counter.
//
// Every syscall Scope reads a clock at entry and at exit, so the read is
// on the hottest path the simulator has. steady_clock::now() costs tens of
// ns on a virtual machine (a vDSO call plus the hypervisor's clock
// scaling); one rdtsc costs a few. On x86 with an invariant TSC (CPUID
// leaf 0x80000007, EDX bit 8: constant rate, not stopped in deep C-states,
// synchronised across cores) cycles() is rdtsc, and cycles_to_ns()
// converts a delta with a 32.32 fixed-point factor calibrated once per
// process against steady_clock. Everywhere else cycles() is steady_clock
// nanoseconds and the conversion is the identity.
//
// The calibration takes two tightly bracketed (steady, tsc) pairs about
// 100 us apart. It runs on the first conversion, not at Kernel
// construction, so building a Kernel never pays for it.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace usk::base {

namespace detail {

/// CPUID reports an invariant TSC (always false off x86-64).
bool has_invariant_tsc();

/// ns per TSC tick in 32.32 fixed point, measured against steady_clock.
std::uint64_t calibrate_tsc();

inline bool use_tsc() {
  static const bool tsc = has_invariant_tsc();
  return tsc;
}

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

/// A monotonic tick count: the TSC where it is invariant, else
/// steady_clock ns. Only differences mean anything; convert them with
/// cycles_to_ns().
[[nodiscard]] inline std::uint64_t cycles() {
#if defined(__x86_64__)
  if (detail::use_tsc()) return __rdtsc();
#endif
  return detail::steady_ns();
}

/// Nanoseconds from `start` to `end`, two cycles() reads. A thread that
/// migrated between the reads may see `end` before `start` (TSCs of
/// different CPUs are close, not equal); that delta clamps to 0.
[[nodiscard]] inline std::uint64_t cycles_to_ns(std::uint64_t start,
                                                std::uint64_t end) {
  if (end <= start) return 0;
  const std::uint64_t d = end - start;
  if (!detail::use_tsc()) return d;
  static const std::uint64_t mult = detail::calibrate_tsc();
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(d) * mult) >> 32);
}

}  // namespace usk::base
