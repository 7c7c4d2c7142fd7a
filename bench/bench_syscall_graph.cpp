// E8 (paper §2.2, design): system-call pattern mining.
//
// "Once the system call activity was logged, we used a script to create a
// system call graph and searched for patterns. ... We found several
// promising system call patterns, including open-read-close,
// open-write-close, open-fstat, and readdir-stat."
//
// Mines the weighted syscall digraph and n-grams from synthetic traces of
// the workload classes the paper captured (interactive desktop, web
// server, mail server, /bin/ls), and reports the top candidates -- which
// rediscover exactly the paper's sequences.
#include <cinttypes>

#include "bench/common.hpp"
#include "consolidation/graph.hpp"
#include "workload/tracegen.hpp"

int main() {
  using namespace usk;
  bench::print_title("E8", "syscall graph mining (paper candidates: "
                           "open-read-close, open-write-close, open-fstat, "
                           "readdir-stat)");

  struct Src {
    const char* name;
    workload::TraceKind kind;
  };
  const Src sources[] = {
      {"interactive desktop", workload::TraceKind::kInteractive},
      {"web server", workload::TraceKind::kWebServer},
      {"mail server", workload::TraceKind::kMailServer},
      {"/bin/ls -l", workload::TraceKind::kLs},
      {"socket server (epoll)", workload::TraceKind::kSocketServer},
  };

  for (const Src& src : sources) {
    auto trace = workload::synth_trace(src.kind, 200000, 2005);
    consolidation::SyscallGraph graph;
    graph.add_trace(trace);

    std::printf("\n--- %s (%zu calls) ---\n", src.name, trace.size());
    std::printf("  top edges:\n");
    for (const auto& e : graph.top_edges(5)) {
      std::printf("    %-10s -> %-12s weight %" PRIu64 "\n",
                  uk::sys_name(e.from), uk::sys_name(e.to), e.weight);
    }
    std::printf("  heavy paths (len<=4, bottleneck weight):\n");
    for (const auto& p : graph.heavy_paths(4, trace.size() / 100, 4)) {
      std::printf("    %-40s weight %" PRIu64 "\n", p.to_string().c_str(),
                  p.weight);
    }
    std::printf("  top trigrams:\n");
    for (const auto& g : consolidation::mine_ngrams(trace, 3, 4)) {
      std::printf("    %-40s count  %" PRIu64 "\n", g.to_string().c_str(),
                  g.count);
    }

    // What-if for the server heavy path: replay the trace as audit
    // records with the modelled per-call byte counts (64-byte requests,
    // 8 KiB documents) and fold accept->recv into accept_recv and
    // open-read-send-close into sendfile.
    if (src.kind == workload::TraceKind::kSocketServer) {
      std::vector<uk::SyscallRecord> records;
      records.reserve(trace.size());
      for (uk::Sys s : trace) {
        uk::SyscallRecord r;
        r.pid = 1;
        r.nr = s;
        switch (s) {
          case uk::Sys::kRecv: r.bytes_out = 64; break;
          case uk::Sys::kSend: r.bytes_in = 8192; break;
          case uk::Sys::kRead: r.bytes_out = 8192; break;
          case uk::Sys::kWrite: r.bytes_in = 200; break;
          case uk::Sys::kOpen: r.bytes_in = 10; break;  // the path
          case uk::Sys::kStat: r.bytes_in = 10; r.bytes_out = 96; break;
          default: break;
        }
        records.push_back(r);
      }
      auto s2 = consolidation::server_consolidation_whatif(records);
      std::printf("  accept_recv + sendfile what-if:\n");
      std::printf("    calls  %" PRIu64 " -> %" PRIu64 "  (%.1f%% fewer)\n",
                  s2.calls_before, s2.calls_after,
                  100.0 * (1.0 - static_cast<double>(s2.calls_after) /
                                     static_cast<double>(s2.calls_before)));
      std::printf("    bytes  %.1f MB -> %.1f MB  (%.1f%% fewer)\n",
                  static_cast<double>(s2.bytes_before) / 1e6,
                  static_cast<double>(s2.bytes_after) / 1e6,
                  100.0 * (1.0 - static_cast<double>(s2.bytes_after) /
                                     static_cast<double>(s2.bytes_before)));
    }
  }
  return 0;
}
