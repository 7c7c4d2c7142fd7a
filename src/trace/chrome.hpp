// chrome://tracing (Trace Event Format) emitter for drained ktrace
// streams: load the JSON in chrome://tracing or Perfetto and see the
// merged per-CPU timeline with syscall spans per task.
#pragma once

#include <string>
#include <vector>

#include "trace/ktrace.hpp"

namespace usk::trace {

/// Render `events` (a drain() result) as a Trace Event Format JSON array.
/// Matching <subsys>:enter / <subsys>:exit pairs on the same pid become
/// complete ("X") duration events named by arg0 where the subsystem is
/// "syscall"; everything else is an instant ("i") event.
[[nodiscard]] std::string export_chrome(const std::vector<TraceEvent>& events);

}  // namespace usk::trace
