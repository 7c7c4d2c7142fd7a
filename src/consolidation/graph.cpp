#include "consolidation/graph.hpp"

#include <algorithm>
#include <unordered_map>

namespace usk::consolidation {

namespace {
std::size_t idx(uk::Sys s) { return static_cast<std::size_t>(s); }
}  // namespace

void SyscallGraph::add_trace(std::span<const uk::Sys> calls) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    ++node_[idx(calls[i])];
    if (i + 1 < calls.size()) {
      ++w_[idx(calls[i])][idx(calls[i + 1])];
    }
  }
}

void SyscallGraph::add_audit(const uk::Audit& audit) {
  std::vector<uk::Sys> trace;
  trace.reserve(audit.records().size());
  for (const auto& r : audit.records()) trace.push_back(r.nr);
  add_trace(trace);
}

std::uint64_t SyscallGraph::edge(uk::Sys a, uk::Sys b) const {
  return w_[idx(a)][idx(b)];
}

std::uint64_t SyscallGraph::node(uk::Sys a) const { return node_[idx(a)]; }

std::vector<SyscallGraph::Edge> SyscallGraph::top_edges(std::size_t k) const {
  std::vector<Edge> edges;
  for (std::size_t a = 0; a < kN; ++a) {
    for (std::size_t b = 0; b < kN; ++b) {
      if (w_[a][b] > 0) {
        edges.push_back(Edge{static_cast<uk::Sys>(a),
                             static_cast<uk::Sys>(b), w_[a][b]});
      }
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.weight > y.weight; });
  if (edges.size() > k) edges.resize(k);
  return edges;
}

std::string SyscallGraph::Path::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) s += "-";
    s += uk::sys_name(seq[i]);
  }
  return s;
}

std::vector<SyscallGraph::Path> SyscallGraph::heavy_paths(
    std::size_t max_len, std::uint64_t min_weight, std::size_t top_k) const {
  std::vector<Path> paths;
  // Seed with every edge above threshold, greedily extend forward with the
  // heaviest continuation that keeps the bottleneck above threshold.
  for (std::size_t a = 0; a < kN; ++a) {
    for (std::size_t b = 0; b < kN; ++b) {
      if (w_[a][b] < min_weight || a == b) continue;
      Path p;
      p.seq = {static_cast<uk::Sys>(a), static_cast<uk::Sys>(b)};
      p.weight = w_[a][b];
      while (p.seq.size() < max_len) {
        std::size_t cur = idx(p.seq.back());
        std::size_t best = kN;
        std::uint64_t best_w = min_weight - 1;
        for (std::size_t c = 0; c < kN; ++c) {
          if (c == cur) continue;  // avoid trivial self-loop chains
          if (w_[cur][c] > best_w) {
            best_w = w_[cur][c];
            best = c;
          }
        }
        if (best == kN || best_w < min_weight) break;
        // Stop on cycles back into the path (except allowing one repeat of
        // the head, e.g. open-read-close-open...).
        bool cycles = std::find(p.seq.begin() + 1, p.seq.end(),
                                static_cast<uk::Sys>(best)) != p.seq.end();
        if (cycles) break;
        p.seq.push_back(static_cast<uk::Sys>(best));
        p.weight = std::min(p.weight, best_w);
      }
      paths.push_back(std::move(p));
    }
  }
  // Deduplicate: keep the longest/heaviest path per (first, second) pair.
  std::sort(paths.begin(), paths.end(), [](const Path& x, const Path& y) {
    if (x.weight != y.weight) return x.weight > y.weight;
    return x.seq.size() > y.seq.size();
  });
  std::vector<Path> out;
  for (Path& p : paths) {
    bool dominated = false;
    for (const Path& q : out) {
      if (q.seq.size() >= p.seq.size() &&
          std::search(q.seq.begin(), q.seq.end(), p.seq.begin(),
                      p.seq.end()) != q.seq.end()) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(std::move(p));
    if (out.size() == top_k) break;
  }
  return out;
}

std::string NGram::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) s += "-";
    s += uk::sys_name(seq[i]);
  }
  return s;
}

std::vector<NGram> mine_ngrams(std::span<const uk::Sys> trace, std::size_t n,
                               std::size_t top_k) {
  struct VecHash {
    std::size_t operator()(const std::vector<uk::Sys>& v) const {
      std::size_t h = 1469598103934665603ull;
      for (uk::Sys s : v) {
        h ^= static_cast<std::size_t>(s);
        h *= 1099511628211ull;
      }
      return h;
    }
  };
  std::unordered_map<std::vector<uk::Sys>, std::uint64_t, VecHash> counts;
  if (trace.size() >= n) {
    std::vector<uk::Sys> key(n);
    for (std::size_t i = 0; i + n <= trace.size(); ++i) {
      std::copy(trace.begin() + static_cast<std::ptrdiff_t>(i),
                trace.begin() + static_cast<std::ptrdiff_t>(i + n),
                key.begin());
      ++counts[key];
    }
  }
  std::vector<NGram> out;
  out.reserve(counts.size());
  for (auto& [seq, count] : counts) out.push_back(NGram{seq, count});
  std::sort(out.begin(), out.end(),
            [](const NGram& x, const NGram& y) { return x.count > y.count; });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

WhatIfSavings readdirplus_whatif(const std::vector<uk::SyscallRecord>& records) {
  WhatIfSavings s;
  // Wire-format cost of one readdirplus record vs. the dirent + stat pair
  // it replaces: the stat's path copy-in and statbuf copy-out disappear;
  // the name+stat ride in the readdirplus output.
  constexpr std::uint64_t kPlusPerStat = sizeof(fs::StatBuf) + 2;

  std::size_t i = 0;
  const std::size_t n = records.size();
  while (i < n) {
    const uk::SyscallRecord& r = records[i];
    s.calls_before += 1;
    s.bytes_before += r.bytes_in + r.bytes_out;
    if (r.nr == uk::Sys::kReaddir) {
      // Count the run: the rest of the getdents loop, the directory-handle
      // close, and the per-file stat burst all collapse into the (path-
      // based) readdirplus result. A close does not break the burst -- a
      // readdirplus caller never opened the directory at all.
      std::uint64_t burst_calls = 0;
      std::uint64_t burst_bytes = 0;
      std::uint64_t plus_bytes = r.bytes_in + r.bytes_out;
      std::size_t j = i + 1;
      while (j < n && (records[j].nr == uk::Sys::kStat ||
                       records[j].nr == uk::Sys::kFstat ||
                       records[j].nr == uk::Sys::kReaddir ||
                       records[j].nr == uk::Sys::kClose)) {
        burst_calls += 1;
        burst_bytes += records[j].bytes_in + records[j].bytes_out;
        if (records[j].nr == uk::Sys::kReaddir) {
          plus_bytes += records[j].bytes_in + records[j].bytes_out;
        } else if (records[j].nr != uk::Sys::kClose) {
          plus_bytes += kPlusPerStat;
        }
        ++j;
      }
      if (burst_calls > 0) {
        s.calls_before += burst_calls;
        s.bytes_before += burst_bytes;
        // After: the whole burst is however many readdirplus calls the
        // original readdir sequence needed (one per readdir record seen).
        std::uint64_t rd_calls = 1;
        for (std::size_t t = i + 1; t < j; ++t) {
          if (records[t].nr == uk::Sys::kReaddir) ++rd_calls;
        }
        s.calls_after += rd_calls;
        s.bytes_after += plus_bytes;
        i = j;
        continue;
      }
    }
    s.calls_after += 1;
    s.bytes_after += r.bytes_in + r.bytes_out;
    ++i;
  }
  return s;
}

WhatIfSavings server_consolidation_whatif(
    const std::vector<uk::SyscallRecord>& records) {
  WhatIfSavings s;
  std::size_t i = 0;
  const std::size_t n = records.size();
  while (i < n) {
    const uk::SyscallRecord& r = records[i];

    // accept followed by recv on the new connection -> one accept_recv.
    if (r.nr == uk::Sys::kAccept && i + 1 < n &&
        records[i + 1].nr == uk::Sys::kRecv &&
        records[i + 1].pid == r.pid) {
      const uk::SyscallRecord& rv = records[i + 1];
      s.calls_before += 2;
      s.bytes_before += r.bytes_in + r.bytes_out + rv.bytes_in + rv.bytes_out;
      s.calls_after += 1;
      // accept_recv still returns the request bytes + the connection fd.
      s.bytes_after += rv.bytes_out + sizeof(int);
      i += 2;
      continue;
    }

    // open, read..., send..., close on one pid -> one sendfile. The file
    // payload (read copy-out + send copy-in) disappears: sendfile moves
    // it kernel-side. What remains of the burst is the path copy-in.
    if (r.nr == uk::Sys::kOpen && i + 1 < n) {
      std::size_t j = i + 1;
      std::uint64_t burst_bytes = r.bytes_in + r.bytes_out;
      std::uint64_t burst_calls = 1;
      bool saw_read = false;
      bool saw_send = false;
      while (j < n && records[j].pid == r.pid &&
             (records[j].nr == uk::Sys::kRead ||
              records[j].nr == uk::Sys::kSend)) {
        saw_read = saw_read || records[j].nr == uk::Sys::kRead;
        saw_send = saw_send || records[j].nr == uk::Sys::kSend;
        burst_bytes += records[j].bytes_in + records[j].bytes_out;
        burst_calls += 1;
        ++j;
      }
      if (saw_read && saw_send && j < n &&
          records[j].nr == uk::Sys::kClose && records[j].pid == r.pid) {
        burst_calls += 1;
        burst_bytes += records[j].bytes_in + records[j].bytes_out;
        s.calls_before += burst_calls;
        s.bytes_before += burst_bytes;
        s.calls_after += 1;
        s.bytes_after += r.bytes_in;  // just the path copy-in
        i = j + 1;
        continue;
      }
    }

    s.calls_before += 1;
    s.calls_after += 1;
    s.bytes_before += r.bytes_in + r.bytes_out;
    s.bytes_after += r.bytes_in + r.bytes_out;
    ++i;
  }
  return s;
}

}  // namespace usk::consolidation
