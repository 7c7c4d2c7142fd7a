// The Cosy compiler front-end (the paper's Cosy-GCC).
//
// Paper §2.3: "Users need to identify the bottleneck code segments and
// mark them with the Cosy specific constructs COSY_START and COSY_END.
// This marked code is parsed and the statements within the delimiters are
// encoded into the Cosy language. ... Cosy-GCC automates the tedious task
// of extracting Cosy operations out of a marked C-code segment and packing
// them into a compound. ... We limited Cosy to the execution of only a
// subset of C in the kernel."
//
// The accepted subset (same spirit as the paper's):
//
//   stmt     := 'int' IDENT '=' expr ';'
//             | IDENT '=' expr ';'
//             | call ';'
//             | 'return' expr ';'
//             | 'if' '(' cond ')' block [ 'else' block ]
//             | 'while' '(' cond ')' block
//             | 'for' '(' simple ';' cond ';' simple ')' block
//   cond     := expr (('<'|'<='|'>'|'>='|'=='|'!=') expr)?
//   expr     := term (('+'|'-') term)*        (also unary '-')
//   term     := factor (('*'|'/'|'%') factor)*
//   factor   := INT | IDENT | call | '(' expr ')' | '@' INT | STRING-ARG
//   call     := SYSCALL '(' args ')' | 'callf' '(' INT (',' expr)* ')'
//
// SYSCALL is any compound-callable entry of the syscall table, by its
// table name (uk::sys_name), with the arguments its signature lists (the
// validator requires a string literal exactly where a path goes).
// open(path, flags) and mkdir(path) default the mode to 0644 and 0755.
// '@N' denotes offset N in the shared zero-copy buffer. String literals
// are interned into the compound's string pool. Named flag constants
// (O_RDONLY, O_WRONLY, O_RDWR, O_CREAT, O_TRUNC, O_APPEND, SEEK_SET,
// SEEK_CUR, SEEK_END) are predefined.
//
// compile() returns the encoded compound -- the exact artifact Cosy-GCC
// would have produced from a COSY_START/COSY_END region. The user-visible
// return value lands in locals[kReturnLocal].
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cosy/compound.hpp"

namespace usk::cosy {

inline constexpr int kReturnLocal = static_cast<int>(kMaxLocals) - 1;

struct CompileResult {
  bool ok = false;
  std::string error;     ///< message with line number when !ok
  Compound compound;     ///< valid when ok
  int locals_used = 0;
};

CompileResult compile(std::string_view source);

/// One user-marked region extracted from a larger source file.
struct MarkedRegion {
  std::size_t begin_offset = 0;  ///< offset just past COSY_START
  std::size_t end_offset = 0;    ///< offset of COSY_END
  CompileResult result;
};

/// The front half of Cosy-GCC: scan a whole source file for
/// COSY_START/COSY_END delimiters and compile each marked region to a
/// compound ("Users need to identify the bottleneck code segments and mark
/// them with the Cosy specific constructs COSY_START and COSY_END",
/// §2.3). Unterminated or nested markers produce a region whose result
/// carries the error. Markers are recognized inside comments too, the way
/// the paper's annotations would appear in real C code.
std::vector<MarkedRegion> compile_marked(std::string_view source);

}  // namespace usk::cosy
