#include "base/appendf.hpp"

#include <cstdarg>
#include <cstdio>

namespace usk::base {

void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n));
    // vsnprintf's NUL lands on the string's own terminator.
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
  }
  va_end(again);
}

}  // namespace usk::base
