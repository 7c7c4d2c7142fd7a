// Numbered names ("f0", "w3", ...) for tests.
#pragma once

#include <string>
#include <string_view>

namespace usk::testutil {

/// `prefix` followed by `n` in decimal, built by appending. The shorter
/// `"f" + std::to_string(n)` inserts at the front of the number's string,
/// which GCC 12 at -O3 misreports as an overlapping memcpy (-Wrestrict).
inline std::string numbered(std::string_view prefix, long long n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace usk::testutil
