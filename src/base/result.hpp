// base::Result<T>: the kernel's std::expected-style error carrier.
//
// Every internal kernel interface (the FileSystem operations table, the
// VFS, the boundary copy routines) returns Result<T> -- either a value or
// an Errno -- instead of sentinel ints. The Linux-style SysRet (negative
// errno packed into a signed word) survives only at the syscall boundary,
// where to_sysret() converts in exactly one place (the syscall gateway).
//
// Result<void> is the replacement for bare `Errno` returns: an operation
// that yields no value but can fail. For migration ergonomics it
// interoperates with Errno in both directions -- constructing from
// Errno::kOk produces success (so `return Errno::kOk;` bodies compile
// unchanged) and it converts back to Errno for legacy `== Errno::kOk`
// comparisons -- while new code uses ok()/error() and USK_TRY.
#pragma once

#include <cstdint>
#include <utility>
#include <variant>

namespace usk {

enum class Errno : std::int32_t;  // defined in base/errno.hpp

namespace base {

/// Result<T>: either a value or an Errno. Modeled after kernel ERR_PTR
/// usage but type-safe. `T` must be cheap to move.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Errno e) : v_(e) {}                 // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] Errno error() const {
    return ok() ? Errno{0} : std::get<Errno>(v_);
  }

  [[nodiscard]] T& value() & { return std::get<T>(v_); }
  [[nodiscard]] const T& value() const& { return std::get<T>(v_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(v_)); }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Errno> v_;
};

/// Result<void>: success or an Errno; the typed replacement for bare
/// Errno returns. Errno::kOk converts to success in both directions so
/// the migration is source-compatible at nearly every call site.
template <>
class Result<void> {
 public:
  Result() = default;               ///< success
  Result(Errno e) : e_(e) {}        // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return e_ == Errno{0}; }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] Errno error() const { return e_; }
  /// Legacy interop: `Errno e = fs.sync();`, `r == Errno::kOk`.
  operator Errno() const { return e_; }  // NOLINT(google-explicit-constructor)

 private:
  Errno e_{0};
};

}  // namespace base

/// Propagate-on-error: evaluate `expr` (a Result), return its error from
/// the enclosing Result-returning function if it failed.
#define USK_TRY(expr)                            \
  do {                                           \
    if (auto _usk_r = (expr); !_usk_r.ok()) {    \
      return _usk_r.error();                     \
    }                                            \
  } while (0)

}  // namespace usk
