#include "base/cycles.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace usk::base::detail {

bool has_invariant_tsc() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000007u) return false;
  __cpuid(0x80000007u, eax, ebx, ecx, edx);
  return (edx & (1u << 8)) != 0;
#else
  return false;
#endif
}

#if defined(__x86_64__)
namespace {

struct Pair {
  std::uint64_t tsc;
  std::uint64_t ns;
};

/// One (tsc, steady) pair: the steady read bracketed by two TSC reads,
/// keeping the narrowest bracket of a few tries (an interrupt or a
/// preemption widens a bracket, never narrows it).
Pair sample() {
  Pair best{0, 0};
  std::uint64_t width = ~std::uint64_t{0};
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t a = __rdtsc();
    const std::uint64_t ns = steady_ns();
    const std::uint64_t b = __rdtsc();
    if (b - a < width) {
      width = b - a;
      best = {a + (b - a) / 2, ns};
    }
  }
  return best;
}

}  // namespace
#endif

std::uint64_t calibrate_tsc() {
#if defined(__x86_64__)
  constexpr std::uint64_t kWindowNs = 100'000;
  const Pair p0 = sample();
  while (steady_ns() - p0.ns < kWindowNs) {
  }
  const Pair p1 = sample();
  if (p1.tsc <= p0.tsc) return std::uint64_t{1} << 32;  // 1 ns per tick
  return ((p1.ns - p0.ns) << 32) / (p1.tsc - p0.tsc);
#else
  return std::uint64_t{1} << 32;
#endif
}

}  // namespace usk::base::detail
