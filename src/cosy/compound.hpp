// Compound buffer and the Cosy-Lib encoder.
//
// Paper §2.3: "The first is a compound buffer, where the compound is
// encoded. The buffer is shared between the user and kernel space, so the
// operations that are added by the user into the compound are directly
// available to the Cosy Kernel Extension without any data copies."
//
// CompoundBuilder is Cosy-Lib: "utility functions to create a compound.
// Statements in the user-marked code segment are changed by the Cosy-GCC
// to call these utility functions." The validate() pass is the kernel's
// first line of defence against hand-crafted malicious compounds.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/errno.hpp"
#include "cosy/ops.hpp"

namespace usk::cosy {

/// The encoded compound: op records plus a string pool. In a real kernel
/// this memory is mapped into both address spaces; here it is one region
/// the executor reads in place (no copy).
struct Compound {
  std::vector<OpRecord> ops;
  std::vector<char> strpool;
};

/// Validation result: first offending op and reason, or ok.
struct ValidationResult {
  bool ok = true;
  std::size_t bad_op = 0;
  std::string reason;
};

/// Wire format: the compound buffer as actual bytes, the way the real
/// system shares it between user and kernel address spaces. serialize()
/// produces a self-contained image; deserialize() parses one defensively
/// (bad magic, truncation, or absurd counts are rejected before the
/// semantic validate() pass ever runs).
std::vector<std::uint8_t> serialize(const Compound& c);
bool deserialize(const std::vector<std::uint8_t>& image, Compound* out);

/// Static checks the kernel extension runs before executing a compound:
/// opcode known, a syscall op's number nestable and its arguments matching
/// the call's uk::sys_sig() signature (count, and a string exactly where a
/// path goes), locals in range, result references point backwards, string
/// refs inside the pool, jump targets in range. `shared_size` bounds
/// kShared references.
ValidationResult validate(const Compound& c, std::size_t shared_size);

/// Cosy-Lib: fluent builder used both by hand-written code and by the
/// Cosy compiler back-end. Methods return the index of the appended op so
/// later ops can reference its result.
class CompoundBuilder {
 public:
  /// Intern a string into the pool, returning a kStr argument.
  Arg str(std::string_view s);

  /// A syscall op: table entry `nr` with `args`, laid out as
  /// uk::sys_sig(nr) says (validate() checks it); the result also lands
  /// in locals[dst_local] (-1 = none).
  int sys(uk::Sys nr, std::span<const Arg> args, int dst_local = -1);

  // Named forms of sys() for the file calls.
  int open(Arg path, Arg flags, Arg mode, int dst_local = -1);
  int close(Arg fd);
  int read(Arg fd, Arg shared_dst, Arg len, int dst_local = -1);
  int write(Arg fd, Arg shared_src, Arg len, int dst_local = -1);
  int lseek(Arg fd, Arg off, Arg whence, int dst_local = -1);
  int stat(Arg path, Arg shared_dst);
  int fstat(Arg fd, Arg shared_dst);
  int getpid(int dst_local = -1);
  int unlink(Arg path);
  int mkdir(Arg path, Arg mode);
  /// getdents-style directory read into the shared buffer (packed
  /// uk::DirentHdr records); result is bytes written, 0 at end.
  int readdir(Arg fd, Arg shared_dst, Arg max_bytes, int dst_local = -1);

  int set_local(int dst_local, Arg v);
  int arith(int dst_local, ArithOp aop, Arg lhs, Arg rhs);
  int jmp(int target);
  int jz(Arg cond, int target);
  int jnz(Arg cond, int target);
  int jneg(Arg cond, int target);
  int call_func(int func_id, std::vector<Arg> fargs, int dst_local = -1);

  /// Current op index (next op to be appended) -- used as a jump label.
  [[nodiscard]] int here() const { return static_cast<int>(c_.ops.size()); }

  /// Patch a previously emitted jump's target (forward references).
  void patch_target(int op_index, int target);

  /// Remove and return the ops from index `begin` to the end (used by the
  /// compiler to relocate a for-loop's step past its body). The removed
  /// ops must not contain jumps and must reference locals, not op results.
  std::vector<OpRecord> take_ops_from(std::size_t begin);
  void append_ops(const std::vector<OpRecord>& ops);

  /// Finish: appends kEnd and returns the compound.
  Compound finish();

 private:
  int emit(OpRecord rec);
  Compound c_;
};

}  // namespace usk::cosy
