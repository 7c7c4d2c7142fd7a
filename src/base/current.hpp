// current: the one per-thread context of the simulated kernel, the way
// Linux keeps "the call this CPU is running" in `current`.
//
// uk::Kernel::Scope installs the call's fields -- its Kernel's tracer and
// injector, when armed, and the task's pid -- at entry and restores the
// enclosing call's at exit. Every other field has one RAII owner that
// saves it at construction and restores it at destruction: kfail outside
// a call (fault::Kfail::Bind), span (trace::SpanScope), ledger
// (uk::FdLedger), deadline (dl::DeadlineScope), and guard and dirty
// (sup::InvocationGuard). The pointee types are only declared here, so
// the lowest layers (mm, blockdev) read the context without depending on
// its owners. On a thread in no call or Bind every field is empty.
#pragma once

#include <cstdint>

namespace usk::fault {
class Kfail;
}
namespace usk::trace {
class Ktrace;
class SpanScope;
}  // namespace usk::trace
namespace usk::uk {
class FdLedger;
}
namespace usk::dl {
class DeadlineScope;
}
namespace usk::sup {
class InvocationGuard;
}

namespace usk::base {

/// A supervisor's dirty-page charge, called with the blocks a clean->dirty
/// transition is about to dirty; false fails the write with EDQUOT. A raw
/// fn+ctx pair because blockdev cannot depend on sup; none = no charge.
struct DirtyCharge {
  bool (*fn)(void* ctx, std::uint64_t blocks) = nullptr;
  void* ctx = nullptr;
};

struct Current {
  /// The running call's Kernel tracer while it is armed, else nullptr:
  /// the one load a disarmed tracepoint makes.
  trace::Ktrace* ktrace = nullptr;
  /// The running call's Kernel injector while armed (or a Kfail::Bind's),
  /// else nullptr: the one load a disarmed fault point makes.
  fault::Kfail* kfail = nullptr;
  std::uint32_t pid = 0;                  ///< the call's task (0 = none)
  trace::SpanScope* span = nullptr;       ///< innermost open span
  uk::FdLedger* ledger = nullptr;         ///< innermost fd ledger
  dl::DeadlineScope* deadline = nullptr;  ///< innermost deadline
  sup::InvocationGuard* guard = nullptr;  ///< innermost invocation
  DirtyCharge dirty;                      ///< the guard's dirty charge
};

namespace detail {
inline thread_local Current tl_current;
}  // namespace detail

/// This thread's context.
[[nodiscard]] inline Current& current() { return detail::tl_current; }

}  // namespace usk::base
