// Deterministic busy-work engine.
//
// The simulator charges costs (context switches, disk seeks, interrupt
// delivery) by *executing real work*, never by sleeping, so benchmark deltas
// are genuine CPU measurements. One work unit is a fixed short ALU chain;
// cache_touch work additionally strides through a scratch buffer to model
// the cache/TLB pollution a real kernel entry causes. Zero units cost
// nothing: a zero cost model leaves only the framework's own work.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace usk::base {

inline constexpr std::uint64_t kWorkSeed = 0x853C49E6748FEA9Bull;

/// `units` rounds of the fixed ALU chain one work unit is. Touches no
/// memory.
[[nodiscard]] inline std::uint64_t alu_chain(std::uint64_t units) {
  std::uint64_t x = kWorkSeed;
  for (std::uint64_t i = 0; i < units; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// `units` of ALU work that writes nothing: a lock's hold work (Dcache)
/// needs no engine and no shared counter.
inline void alu_hold(std::uint64_t units) {
  const std::uint64_t x = alu_chain(units);
  // The optimizer may not drop what feeds an asm input.
  asm volatile("" : : "r"(x));
}

class WorkEngine {
 public:
  WorkEngine() {
    for (auto& w : scratch_) w.store(1, std::memory_order_relaxed);
  }

  /// Execute `units` of pure ALU work.
  void alu(std::uint64_t units) {
    if (units == 0) return;
    sink(alu_chain(units));
  }

  /// Execute `units` of cache-touching work (one line per unit). The
  /// scratch increments are relaxed atomics so concurrent syscall
  /// dispatchers (SMP mode) still generate real shared-cache traffic
  /// without a data race.
  void cache_touch(std::uint64_t units) {
    if (units == 0) return;
    std::uint64_t x = kWorkSeed;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < units; ++i) {
      // Stride by a cache line; the xorshift makes the pattern
      // non-prefetchable, approximating TLB/cache refill costs.
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += scratch_[(x >> 6) % scratch_.size()].fetch_add(
          1, std::memory_order_relaxed);
    }
    sink(acc);
  }

  /// Total units ever executed (for accounting assertions in tests).
  [[nodiscard]] std::uint64_t total_units() const {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  void sink(std::uint64_t v) {
    // Publish through an atomic so the optimizer cannot delete the loop.
    total_.fetch_add(1 + (v & 1), std::memory_order_relaxed);
  }

  static constexpr std::size_t kScratchWords = 1 << 15;  // 256 KiB of u64
  std::atomic<std::uint64_t> total_{0};
  alignas(64) std::array<std::atomic<std::uint64_t>, kScratchWords> scratch_{};
};

}  // namespace usk::base
