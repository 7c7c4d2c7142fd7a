// Cosy compound encoding (paper §2.3).
//
// "Cosy encodes a C code segment containing system calls in a compound
// structure. The kernel executes this aggregate compound directly, thus
// avoiding data copies between user space and kernel-space."
//
// A compound is a little program: fixed-size op records with typed
// argument slots, 64 integer locals, conditional jumps (loops compile to
// back-edges), and calls into registered CosyVM user functions. Arguments
// can reference immediates, locals, the *result of an earlier op* (the
// dependency resolution Cosy-GCC performs), offsets into the shared
// zero-copy buffer, or strings in the compound's string pool.
#pragma once

#include <cstdint>

#include "uk/syscall.hpp"

namespace usk::cosy {

enum class Op : std::uint8_t {
  kEnd = 0,
  // System call (executed in-kernel, no boundary crossing per op): the
  // table entry aux (a uk::Sys number), its arguments laid out by
  // uk::sys_sig(aux) -> locals[aux2] (-1 = none).
  kSys = 1,
  // Data flow / control flow:
  kSet = 16,    // locals[aux] = arg0
  kArith = 17,  // locals[aux] = arg0 <aux2-op> arg1
  kJmp = 18,    // goto op index aux
  kJz = 19,     // if (arg0 == 0) goto aux
  kJnz = 20,    // if (arg0 != 0) goto aux
  kJneg = 21,   // if (arg0 < 0) goto aux
  // User functions:
  kCallFunc = 24,  // call registered function aux with the args -> r0
};

enum class ArithOp : std::int32_t {
  kAdd = 0,
  kSub = 1,
  kMul = 2,
  kDiv = 3,
  kMod = 4,
  // Comparisons produce 0/1 (used by compiled conditions):
  kLt = 5,
  kLe = 6,
  kGt = 7,
  kGe = 8,
  kEq = 9,
  kNe = 10,
};

enum class ArgKind : std::uint8_t {
  kNone = 0,
  kImm = 1,       ///< immediate 64-bit value
  kLocal = 2,     ///< locals[a]
  kResultOf = 3,  ///< result of op index a (must precede this op)
  kShared = 4,    ///< offset a (length from the signature) in the shared buffer
  kStr = 5,       ///< string pool offset a, length b
};

struct Arg {
  ArgKind kind = ArgKind::kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

inline constexpr std::size_t kMaxArgs = uk::kSysArgs;
/// kCallFunc passes at most this many arguments (VmFunction::run's r1..r4).
inline constexpr std::size_t kMaxFuncArgs = 4;
inline constexpr std::size_t kMaxLocals = 64;
inline constexpr std::size_t kMaxOps = 4096;
inline constexpr std::size_t kMaxStrPool = 1 << 16;

/// One fixed-size compound record.
struct OpRecord {
  Op op = Op::kEnd;
  std::uint8_t nargs = 0;
  /// Per-op extra: syscall number (kSys), dst local (kSet/kArith), jump
  /// target (kJmp family), function id (kCallFunc).
  std::int32_t aux = 0;
  /// Second extra: ArithOp for kArith, dst local for syscall results
  /// (-1 = none).
  std::int32_t aux2 = -1;
  Arg args[kMaxArgs];
};

/// Immediate argument helpers.
inline Arg imm(std::int64_t v) { return Arg{ArgKind::kImm, v, 0}; }
inline Arg local(int idx) { return Arg{ArgKind::kLocal, idx, 0}; }
inline Arg result_of(int op_index) { return Arg{ArgKind::kResultOf, op_index, 0}; }
inline Arg shared(std::int64_t offset) { return Arg{ArgKind::kShared, offset, 0}; }

}  // namespace usk::cosy
