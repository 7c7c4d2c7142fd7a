// CosyVM: safe execution of user-supplied functions inside the kernel.
//
// The paper runs compiled user functions at kernel privilege and keeps
// them safe with (a) x86 segmentation -- "put the entire user function in
// an isolated segment but at the same privilege level ... any reference
// outside the isolated segment generates a protection fault" -- and (b)
// kernel preemption -- runaway functions are killed when their kernel
// time budget expires.
//
// We reproduce both on a small register VM: every load/store goes through
// a seg::DescriptorTable bounds check, back-edges are preemption points,
// and the two safety modes trade isolation for call overhead exactly as
// §2.3 describes:
//   * kIsolatedSegments: code AND data in isolated segments; instruction
//     fetch itself is segment-checked and entering the function pays a
//     far-call cost. Self-modifying code is impossible (code segment is
//     execute-only).
//   * kDataSegmentOnly:  only data is segmented; code runs from kernel
//     (trusted) memory with no per-fetch check and no far-call overhead --
//     cheaper, but "provides little protection against self-modifying
//     code and is also vulnerable to hand-crafted user functions".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/errno.hpp"
#include "base/work.hpp"
#include "sched/scheduler.hpp"
#include "seg/segment.hpp"

namespace usk::cosy {

enum class VmOp : std::uint8_t {
  kHalt = 0,
  kLoadI,  ///< r1 = imm
  kMov,    ///< r1 = r2
  kAdd,    ///< r1 = r1 + r2
  kSub,
  kMul,
  kDiv,    ///< r1 = r1 / r2 (0 divisor faults)
  kMod,
  kAddI,   ///< r1 = r1 + imm
  kLd,     ///< r1 = *(i64*)(data + r2 + imm)
  kLd1,    ///< r1 = *(u8*) (data + r2 + imm)
  kSt,     ///< *(i64*)(data + r2 + imm) = r1
  kSt1,    ///< *(u8*) (data + r2 + imm) = r1
  kJmp,    ///< pc = imm
  kJz,     ///< if (r1 == 0) pc = imm
  kJnz,
  kJlt,    ///< if (r1 < r2) pc = imm
  kRet,    ///< return r0
};

struct VmInstr {
  VmOp op = VmOp::kHalt;
  std::uint8_t r1 = 0;
  std::uint8_t r2 = 0;
  std::int64_t imm = 0;
};

enum class SafetyMode {
  kIsolatedSegments,
  kDataSegmentOnly,
};

inline constexpr std::size_t kVmRegs = 16;

/// Costs of the safety machinery, in work units.
struct VmCosts {
  std::uint64_t far_call = 400;  ///< cross-segment call (isolated mode)
};

struct VmRunStats {
  std::uint64_t instructions = 0;
  std::uint64_t back_edges = 0;
  std::uint64_t seg_checks = 0;
};

/// A registered user function: bytecode + a persistent data segment.
class VmFunction {
 public:
  VmFunction(std::vector<VmInstr> code, std::size_t data_size,
             SafetyMode mode, seg::DescriptorTable& gdt, std::string name);

  /// Execute with up to 4 arguments in r1..r4. Returns r0, or an Errno on
  /// a safety violation / watchdog kill.
  Result<std::int64_t> run(std::span<const std::int64_t> args,
                           sched::Scheduler& sched, base::WorkEngine& engine,
                           const VmCosts& costs, VmRunStats* stats);

  [[nodiscard]] SafetyMode mode() const { return mode_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Switch the safety mode at run time (the paper's §2.4 heuristic: after
  /// enough clean executions the expensive isolation is turned off; a
  /// violation turns it back on). The isolated code segment is kept so the
  /// switch is reversible.
  void set_mode(SafetyMode mode);

  /// Run-time code modification (paper §3.5 future work: "a means for
  /// direct, code-level modification of an executable ... at run-time. A
  /// binary would be augmented with its ... compiler-level intermediate
  /// representation (IR) ... New code could be inserted by ... compiling
  /// that IR to binary code and modifying the appropriate sections of the
  /// program's text segment.") A VmFunction's VmInstr vector IS its IR:
  /// splice() inserts instructions at `pos`, relocates every jump target
  /// that points at-or-past the splice, and rewrites the isolated text
  /// segment in place. Targets inside the inserted block are absolute
  /// post-splice indices. Returns false for an out-of-range position.
  bool splice(std::size_t pos, std::span<const VmInstr> instrs);

  [[nodiscard]] std::size_t code_size() const { return code_.size(); }
  [[nodiscard]] std::uint64_t patches() const { return patches_; }

  /// Clean (error-free) completions since the last violation.
  std::uint64_t clean_runs = 0;

  /// Direct (trusted, setup-time) access to the data segment, e.g. to
  /// preload tables before installing the function.
  Errno poke(std::uint64_t off, const void* src, std::size_t n);
  Errno peek(std::uint64_t off, void* dst, std::size_t n);

 private:
  Result<VmInstr> fetch(std::size_t pc, VmRunStats* stats);

  std::vector<VmInstr> code_;      // trusted copy AND the function's IR
  std::uint64_t patches_ = 0;
  std::size_t data_size_;
  SafetyMode mode_;
  seg::DescriptorTable& gdt_;
  seg::Selector code_sel_ = seg::kNullSelector;  // isolated mode only
  seg::Selector data_sel_ = seg::kNullSelector;
  std::string name_;
};

/// Registry of installed functions (the ids compounds call).
class FunctionTable {
 public:
  explicit FunctionTable(seg::DescriptorTable& gdt) : gdt_(gdt) {}

  int install(std::vector<VmInstr> code, std::size_t data_size,
              SafetyMode mode, std::string name);
  VmFunction* get(int id);

  [[nodiscard]] std::size_t size() const { return funcs_.size(); }
  /// Installed function #i (0 <= i < size()); ids are dense.
  [[nodiscard]] VmFunction& at(std::size_t i) { return *funcs_[i]; }

  [[nodiscard]] seg::DescriptorTable& gdt() { return gdt_; }

 private:
  seg::DescriptorTable& gdt_;
  std::vector<std::unique_ptr<VmFunction>> funcs_;
};

/// Run-time instrumentation built on splice(): insert an execution counter
/// at the function's entry. The counter lives at `data_offset` (8 bytes)
/// in the function's data segment; the inserted code clobbers r14/r15,
/// which instrumented functions must treat as reserved. This is the
/// "instrument every operation..." capability of §3.5 applied through the
/// §3.5 binary-modification mechanism.
bool instrument_entry_counter(VmFunction& fn, std::uint64_t data_offset);

/// Tiny assembler for building VM programs in tests/examples.
class VmAssembler {
 public:
  VmAssembler& loadi(int r, std::int64_t v) { return emit({VmOp::kLoadI, u8(r), 0, v}); }
  VmAssembler& mov(int r1, int r2) { return emit({VmOp::kMov, u8(r1), u8(r2), 0}); }
  VmAssembler& add(int r1, int r2) { return emit({VmOp::kAdd, u8(r1), u8(r2), 0}); }
  VmAssembler& sub(int r1, int r2) { return emit({VmOp::kSub, u8(r1), u8(r2), 0}); }
  VmAssembler& mul(int r1, int r2) { return emit({VmOp::kMul, u8(r1), u8(r2), 0}); }
  VmAssembler& div(int r1, int r2) { return emit({VmOp::kDiv, u8(r1), u8(r2), 0}); }
  VmAssembler& mod(int r1, int r2) { return emit({VmOp::kMod, u8(r1), u8(r2), 0}); }
  VmAssembler& addi(int r, std::int64_t v) { return emit({VmOp::kAddI, u8(r), 0, v}); }
  VmAssembler& ld(int r1, int r2, std::int64_t off) { return emit({VmOp::kLd, u8(r1), u8(r2), off}); }
  VmAssembler& ld1(int r1, int r2, std::int64_t off) { return emit({VmOp::kLd1, u8(r1), u8(r2), off}); }
  VmAssembler& st(int r1, int r2, std::int64_t off) { return emit({VmOp::kSt, u8(r1), u8(r2), off}); }
  VmAssembler& st1(int r1, int r2, std::int64_t off) { return emit({VmOp::kSt1, u8(r1), u8(r2), off}); }
  VmAssembler& jmp(std::int64_t target) { return emit({VmOp::kJmp, 0, 0, target}); }
  VmAssembler& jz(int r, std::int64_t target) { return emit({VmOp::kJz, u8(r), 0, target}); }
  VmAssembler& jnz(int r, std::int64_t target) { return emit({VmOp::kJnz, u8(r), 0, target}); }
  VmAssembler& jlt(int r1, int r2, std::int64_t target) { return emit({VmOp::kJlt, u8(r1), u8(r2), target}); }
  VmAssembler& ret() { return emit({VmOp::kRet, 0, 0, 0}); }
  VmAssembler& halt() { return emit({VmOp::kHalt, 0, 0, 0}); }

  [[nodiscard]] std::size_t here() const { return code_.size(); }
  void patch(std::size_t at, std::int64_t target) { code_.at(at).imm = target; }

  std::vector<VmInstr> take() { return std::move(code_); }

 private:
  static std::uint8_t u8(int r) { return static_cast<std::uint8_t>(r); }
  VmAssembler& emit(VmInstr i) {
    code_.push_back(i);
    return *this;
  }
  std::vector<VmInstr> code_;
};

}  // namespace usk::cosy
