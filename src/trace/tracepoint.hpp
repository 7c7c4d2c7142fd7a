// USK_TRACEPOINT: the instrumentation facade every subsystem uses.
//
//   USK_TRACEPOINT("vfs", "open");             // no payload
//   USK_TRACEPOINT("mm", "kmalloc", size);     // one payload word
//   USK_TRACEPOINT("syscall", "exit", nr, ret) // two payload words
//
// A site emits into the running call's tracer, which uk::Kernel::Scope
// installed in base::Current at entry if that Kernel's tracer was armed;
// on a thread in no Kernel call it does nothing. Disabled cost is ONE
// thread-local load + a predicted branch; nothing is computed,
// registered, or allocated until the first enabled hit interns the site
// name: the kernel tracepoint discipline in portable C++ clothes.
//
// USK_TRACEPOINT_TO(kt, ...) names its tracer instead (pass
// Ktrace::armed()): for code that knows its Kernel but also runs between
// its calls, such as a supervised invocation's epilogue.
//
// USK_TRACE_LATENCY(subsys, name) drops an RAII timer into the enclosing
// scope that records into the running call's histogram of that name,
// sampling the clock only when the call's tracer is armed.
#pragma once

#include <chrono>

#include "base/current.hpp"
#include "trace/ktrace.hpp"

#define USK_TRACE_CAT2_(a, b) a##b
#define USK_TRACE_CAT_(a, b) USK_TRACE_CAT2_(a, b)

#define USK_TRACEPOINT_TO(kt, subsys, name, ...)                          \
  do {                                                                    \
    if (::usk::trace::Ktrace* _usk_kt = (kt)) [[unlikely]] {              \
      static const std::uint16_t _usk_tp_id =                             \
          ::usk::trace::register_site((subsys), (name));                  \
      _usk_kt->emit(_usk_tp_id __VA_OPT__(, ) __VA_ARGS__);               \
    }                                                                     \
  } while (0)

#define USK_TRACEPOINT(subsys, name, ...)                                 \
  USK_TRACEPOINT_TO(::usk::base::current().ktrace, (subsys),              \
                    (name)__VA_OPT__(, ) __VA_ARGS__)

namespace usk::trace {

/// Records scope duration into the running call's histogram `id`;
/// samples the clock only while that call's tracer is armed, so the
/// disabled path stays branch-only.
class ScopedLatency {
 public:
  explicit ScopedLatency(std::uint16_t id) {
    if (Ktrace* kt = base::current().ktrace) [[unlikely]] {
      h_ = &kt->op_hist(id);
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedLatency() {
    if (h_ != nullptr) [[unlikely]] {
      h_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count()));
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace usk::trace

#define USK_TRACE_LATENCY(subsys, name)                                    \
  static const std::uint16_t USK_TRACE_CAT_(_usk_lat_id, __LINE__) =       \
      ::usk::trace::register_site((subsys), (name));                    \
  ::usk::trace::ScopedLatency USK_TRACE_CAT_(_usk_lat_s, __LINE__) {       \
    USK_TRACE_CAT_(_usk_lat_id, __LINE__)                                  \
  }
