// Log-linear latency histogram: exact below 128 ns, then 64 linear
// sub-buckets per power of two (at most 1.6% wide). Memory is fixed, so
// the benchmark's own footprint does not grow with the number of ops it
// completes, and peak_rss_mib measures the program, not the sample store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace uskbench {

class LatencyHist {
 public:
  void add(std::uint64_t ns) {
    if (b_.empty()) b_.resize(kBuckets);
    ++b_[index(ns)];
    ++n_;
    sum_ns_ += static_cast<double>(ns);
  }

  void merge(const LatencyHist& o) {
    if (o.n_ == 0) return;
    if (b_.empty()) b_.resize(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
    sum_ns_ += o.sum_ns_;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum_ns() const { return sum_ns_; }

  /// Nearest-rank quantile in ns, placed linearly within its bucket.
  [[nodiscard]] double quantile_ns(double q) const {
    if (n_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_) + 0.999999);
    rank = std::clamp<std::uint64_t>(rank, 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + b_[i] >= rank) {
        const double lo = static_cast<double>(lower(i));
        const double hi = static_cast<double>(lower(i + 1));
        return lo + (hi - lo) * (static_cast<double>(rank - seen) - 0.5) /
                        static_cast<double>(b_[i]);
      }
      seen += b_[i];
    }
    return static_cast<double>(lower(kBuckets));
  }

 private:
  static constexpr int kSub = 6;  // 64 sub-buckets per octave
  static constexpr std::size_t kBuckets = (64 - kSub) << kSub;

  static std::size_t index(std::uint64_t v) {
    const int msb = 63 - __builtin_clzll(v | 1);
    if (msb <= kSub) return static_cast<std::size_t>(v);
    const int shift = msb - kSub;
    return (static_cast<std::size_t>(shift) << kSub) +
           static_cast<std::size_t>(v >> shift);
  }
  /// Smallest value of bucket i (inverse of index).
  static std::uint64_t lower(std::size_t i) {
    if (i < (std::size_t{2} << kSub)) return i;
    const std::size_t shift = (i >> kSub) - 1;
    return static_cast<std::uint64_t>((i & ((1u << kSub) - 1)) | (1u << kSub))
           << shift;
  }

  std::vector<std::uint32_t> b_;
  std::uint64_t n_ = 0;
  double sum_ns_ = 0;
};

}  // namespace uskbench
