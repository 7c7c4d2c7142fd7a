// appendf: printf onto the end of a std::string.
//
// Every /proc renderer builds its text with this. The line is formatted
// in place at the string's tail, so a long one (a 600-byte task name) is
// appended whole: never cut, and never read past a fixed stack buffer.
#pragma once

#include <string>

namespace usk::base {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace usk::base
