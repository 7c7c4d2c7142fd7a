#include "trace/chrome.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "base/appendf.hpp"

namespace usk::trace {

namespace {

void append_common(std::string* out, const TraceEvent& e) {
  base::appendf(*out,
                "\"ts\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"seq\":%" PRIu64
                ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}",
                static_cast<double>(e.ts_ns) / 1000.0, e.pid, e.cpu, e.seq,
                e.arg0, e.arg1);
}

}  // namespace

std::string export_chrome(const std::vector<TraceEvent>& events) {
  Ktrace& kt = ktrace();
  std::string out = "[";
  bool first = true;
  // Open "syscall:enter" per pid, waiting for the matching exit.
  std::unordered_map<std::uint32_t, TraceEvent> open_syscall;

  for (const TraceEvent& e : events) {
    const char* subsys = kt.site_subsys(e.site);
    const char* name = kt.site_name(e.site);
    if (std::strcmp(subsys, "syscall") == 0) {
      if (std::strcmp(name, "enter") == 0) {
        open_syscall[e.pid] = e;
        continue;
      }
      if (std::strcmp(name, "exit") == 0) {
        auto it = open_syscall.find(e.pid);
        if (it != open_syscall.end() && it->second.arg0 == e.arg0) {
          const TraceEvent& enter = it->second;
          if (!first) out += ",";
          first = false;
          base::appendf(out,
                        "{\"name\":\"sys_%" PRIu64
                        "\",\"ph\":\"X\",\"dur\":%.3f,",
                        e.arg0,
                        static_cast<double>(e.ts_ns - enter.ts_ns) / 1000.0);
          append_common(&out, enter);
          out += "}";
          open_syscall.erase(it);
          continue;
        }
      }
    }
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += subsys;
    out += ":";
    out += name;
    out += "\",\"ph\":\"i\",\"s\":\"t\",";
    append_common(&out, e);
    out += "}";
  }
  out += "]";
  return out;
}

bool export_chrome_file(const std::vector<TraceEvent>& events,
                        const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::string json = export_chrome(events);
  std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return n == json.size();
}

}  // namespace usk::trace
