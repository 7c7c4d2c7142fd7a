// System-call graph mining (paper §2.2).
//
// "This is a weighted directed graph with vertices representing system
// calls and an edge between V1 and V2 having a weight equal to the number
// of times system call V2 was invoked after V1. Paths with large weights
// are likely to be good candidates for consolidation."
//
// Besides the graph itself, an n-gram miner counts contiguous sequences
// directly (the readdir-stat-stat... pattern is easier to see as n-grams),
// and a what-if analyzer replays a trace to compute the savings
// readdirplus would have delivered -- the paper's interactive-workload
// estimate.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fs/types.hpp"
#include "uk/audit.hpp"

namespace usk::consolidation {

class SyscallGraph {
 public:
  static constexpr std::size_t kN = static_cast<std::size_t>(uk::Sys::kMaxSys);

  void add_trace(std::span<const uk::Sys> calls);
  void add_audit(const uk::Audit& audit);

  [[nodiscard]] std::uint64_t edge(uk::Sys a, uk::Sys b) const;
  [[nodiscard]] std::uint64_t node(uk::Sys a) const;

  struct Edge {
    uk::Sys from, to;
    std::uint64_t weight;
  };
  [[nodiscard]] std::vector<Edge> top_edges(std::size_t k) const;

  /// Heavy paths: greedy forward extension from each heavy edge. A path's
  /// weight is its bottleneck (minimum) edge weight.
  struct Path {
    std::vector<uk::Sys> seq;
    std::uint64_t weight = 0;
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] std::vector<Path> heavy_paths(std::size_t max_len,
                                              std::uint64_t min_weight,
                                              std::size_t top_k) const;

 private:
  std::array<std::array<std::uint64_t, kN>, kN> w_{};
  std::array<std::uint64_t, kN> node_{};
};

/// Count contiguous n-grams over one or more traces.
struct NGram {
  std::vector<uk::Sys> seq;
  std::uint64_t count = 0;
  [[nodiscard]] std::string to_string() const;
};
std::vector<NGram> mine_ngrams(std::span<const uk::Sys> trace, std::size_t n,
                               std::size_t top_k);

/// What-if analysis: savings if every readdir-followed-by-stats burst in
/// the trace had been a readdirplus (paper's estimate: 171,975 calls ->
/// 17,251; 51.8 MB -> 32.2 MB).
struct WhatIfSavings {
  std::uint64_t calls_before = 0;
  std::uint64_t calls_after = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
};
WhatIfSavings readdirplus_whatif(const std::vector<uk::SyscallRecord>& records);

/// What-if analysis for the server heavy path (E8): savings if every
/// accept->recv pair had been one accept_recv, and every
/// open->read...->send...->close response burst one sendfile. Besides the
/// saved crossings, sendfile's bytes_after drops the file payload
/// entirely -- the data would have moved kernel-side.
WhatIfSavings server_consolidation_whatif(
    const std::vector<uk::SyscallRecord>& records);

}  // namespace usk::consolidation
