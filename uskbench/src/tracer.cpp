#include "tracer.hpp"

#include <cstdio>

namespace uskbench {

const char* span_name(Sp s) {
  switch (s) {
    case Sp::kOp: return "bench.op";
    case Sp::kUkStat: return "uk.stat";
    case Sp::kUkOpen: return "uk.open";
    case Sp::kUkRead: return "uk.read";
    case Sp::kUkWrite: return "uk.write";
    case Sp::kUkClose: return "uk.close";
    case Sp::kUkUnlink: return "uk.unlink";
    case Sp::kUkFsync: return "uk.fsync";
    case Sp::kNetSend: return "net.send";
    case Sp::kNetRecv: return "net.recv";
    case Sp::kCosyExecute: return "cosy.execute";
    case Sp::kBenchVerify: return "bench.verify";
    case Sp::kBenchPrep: return "bench.prep";
    case Sp::kCount: break;
  }
  return "?";
}

double ns_per_tick() {
  static const double k = [] {
    // Spin ~20 ms and compare the two clocks.
    const std::uint64_t n0 = now_ns();
    const std::uint64_t t0 = ticks();
    std::uint64_t n1 = n0;
    while (n1 - n0 < 20000000) n1 = now_ns();
    const std::uint64_t t1 = ticks();
    return t1 > t0 ? static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0)
                   : 1.0;
  }();
  return k;
}

void TraceTotals::merge(const TraceTotals& o) {
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    total_ns[i] += o.total_ns[i];
    self_ns[i] += o.self_ns[i];
  }
  ops += o.ops;
  root_ns += o.root_ns;
  covered_ns += o.covered_ns;
  ops_under_90 += o.ops_under_90;
}

void Tracer::op_end() {
  if (!on_ || cur_.empty()) return;
  cur_[0].t1 = ticks();
  open_ = -1;

  // Self time: each span's duration minus its children's durations.
  self_.resize(cur_.size());
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < cur_.size(); ++i) self_[i] = cur_[i].t1 - cur_[i].t0;
  for (std::size_t i = 1; i < cur_.size(); ++i) {
    const std::uint64_t d = cur_[i].t1 - cur_[i].t0;
    self_[static_cast<std::size_t>(cur_[i].parent)] -= d;
    if (cur_[i].parent == 0) covered += d;
  }
  for (std::size_t i = 0; i < cur_.size(); ++i) {
    const auto n = static_cast<std::size_t>(cur_[i].name);
    totals_.total_ns[n] += static_cast<double>(cur_[i].t1 - cur_[i].t0) * ns_per_tick_;
    totals_.self_ns[n] += static_cast<double>(self_[i]) * ns_per_tick_;
  }
  const std::uint64_t root = cur_[0].t1 - cur_[0].t0;
  ++totals_.ops;
  totals_.root_ns += static_cast<double>(root) * ns_per_tick_;
  totals_.covered_ns += static_cast<double>(covered) * ns_per_tick_;
  if (covered * 10 < root * 9) ++totals_.ops_under_90;

  if (sampled_ops_ < sample_ops_) {
    ++sampled_ops_;
    sample_.insert(sample_.end(), cur_.begin(), cur_.end());
  }
  cur_.clear();
}

bool write_spans(const std::string& path, bool truncate, int thread,
                 const std::vector<SpanRec>& spans, std::uint64_t epoch) {
  std::FILE* f = std::fopen(path.c_str(), truncate ? "w" : "a");
  if (f == nullptr) return false;
  if (truncate) std::fputs("thread\top\tindex\tparent\tname\tt0_ns\tt1_ns\n", f);
  const double k = ns_per_tick();
  auto rel = [&](std::uint64_t t) {
    return static_cast<long long>(
        (static_cast<double>(t) - static_cast<double>(epoch)) * k);
  };
  int index = 0;
  for (const SpanRec& s : spans) {
    if (s.parent < 0) index = 0;
    std::fprintf(f, "%d\t%llu\t%d\t%d\t%s\t%lld\t%lld\n", thread,
                 static_cast<unsigned long long>(s.op), index++, s.parent,
                 span_name(s.name), rel(s.t0), rel(s.t1));
  }
  return std::fclose(f) == 0;
}

}  // namespace uskbench
