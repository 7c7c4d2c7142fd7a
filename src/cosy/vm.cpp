#include "cosy/vm.hpp"

#include <cstring>

namespace usk::cosy {

constexpr std::uint64_t kUnitsPerInstr = 2;  ///< base interpreter step
constexpr std::uint64_t kChargeBatch = 32;   ///< instructions per cost flush

VmFunction::VmFunction(std::vector<VmInstr> code, std::size_t data_size,
                       SafetyMode mode, seg::DescriptorTable& gdt,
                       std::string name)
    : code_(std::move(code)),
      data_size_(data_size),
      mode_(mode),
      gdt_(gdt),
      name_(std::move(name)) {
  data_sel_ = gdt_.install(data_size_, /*readable=*/true, /*writable=*/true,
                           /*executable=*/false, name_ + ".data");
  if (mode_ == SafetyMode::kIsolatedSegments) {
    // Execute-only code segment: not writable, so self-modifying code is
    // structurally impossible (the paper's two-segment argument).
    code_sel_ = gdt_.install(code_.size() * sizeof(VmInstr),
                             /*readable=*/false, /*writable=*/false,
                             /*executable=*/true, name_ + ".code");
    std::memcpy(gdt_.raw(code_sel_), code_.data(),
                code_.size() * sizeof(VmInstr));
  }
}

void VmFunction::set_mode(SafetyMode mode) {
  if (mode == mode_) return;
  if (mode == SafetyMode::kIsolatedSegments &&
      code_sel_ == seg::kNullSelector) {
    // First demotion to isolated: materialize the execute-only segment.
    code_sel_ = gdt_.install(code_.size() * sizeof(VmInstr),
                             /*readable=*/false, /*writable=*/false,
                             /*executable=*/true, name_ + ".code");
    std::memcpy(gdt_.raw(code_sel_), code_.data(),
                code_.size() * sizeof(VmInstr));
  }
  mode_ = mode;
}

bool VmFunction::splice(std::size_t pos, std::span<const VmInstr> instrs) {
  if (pos > code_.size()) return false;
  const auto len = static_cast<std::int64_t>(instrs.size());

  // Relocate jump targets in the ORIGINAL code that point at or past the
  // splice point (the paper's IR contains "pointers into the binary's text
  // segment, which would be updated").
  for (VmInstr& in : code_) {
    switch (in.op) {
      case VmOp::kJmp:
      case VmOp::kJz:
      case VmOp::kJnz:
      case VmOp::kJlt:
        if (in.imm >= static_cast<std::int64_t>(pos)) in.imm += len;
        break;
      default:
        break;
    }
  }
  code_.insert(code_.begin() + static_cast<std::ptrdiff_t>(pos),
               instrs.begin(), instrs.end());
  ++patches_;

  // Rewrite the isolated text segment (its size changed, so the old
  // descriptor is retired and a fresh execute-only segment installed).
  if (code_sel_ != seg::kNullSelector) {
    gdt_.remove(code_sel_);
    code_sel_ = gdt_.install(code_.size() * sizeof(VmInstr),
                             /*readable=*/false, /*writable=*/false,
                             /*executable=*/true, name_ + ".code");
    std::memcpy(gdt_.raw(code_sel_), code_.data(),
                code_.size() * sizeof(VmInstr));
  }
  return true;
}

bool instrument_entry_counter(VmFunction& fn, std::uint64_t data_offset) {
  // counter(data_offset) += 1, using the reserved scratch registers.
  const auto off = static_cast<std::int64_t>(data_offset);
  const VmInstr counter_ir[] = {
      {VmOp::kLoadI, 14, 0, 0},    // r14 = 0 (base)
      {VmOp::kLd, 15, 14, off},    // r15 = counter
      {VmOp::kAddI, 15, 0, 1},     // r15 += 1
      {VmOp::kSt, 15, 14, off},    // counter = r15
  };
  return fn.splice(0, counter_ir);
}

Errno VmFunction::poke(std::uint64_t off, const void* src, std::size_t n) {
  return gdt_.store(data_sel_, off, src, n);
}

Errno VmFunction::peek(std::uint64_t off, void* dst, std::size_t n) {
  return gdt_.load(data_sel_, off, dst, n);
}

Result<VmInstr> VmFunction::fetch(std::size_t pc, VmRunStats* stats) {
  if (mode_ == SafetyMode::kIsolatedSegments) {
    // Hardware-checked instruction fetch from the isolated code segment.
    VmInstr instr;
    ++stats->seg_checks;
    Errno e = gdt_.fetch(code_sel_, pc * sizeof(VmInstr), &instr,
                         sizeof(instr));
    if (e != Errno::kOk) return e;
    return instr;
  }
  if (pc >= code_.size()) return Errno::kEFAULT;
  return code_[pc];
}

Result<std::int64_t> VmFunction::run(std::span<const std::int64_t> args,
                                     sched::Scheduler& sched,
                                     base::WorkEngine& engine,
                                     const VmCosts& costs,
                                     VmRunStats* stats) {
  VmRunStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  if (mode_ == SafetyMode::kIsolatedSegments) {
    // Far call into the isolated segment: the cross-segment transfer the
    // paper identifies as this mode's overhead.
    gdt_.note_far_call();
    engine.alu(costs.far_call);
    if (sched::Task* t = sched.current()) t->charge_kernel(costs.far_call);
  }

  std::int64_t regs[kVmRegs] = {};
  for (std::size_t i = 0; i < args.size() && i + 1 < kVmRegs; ++i) {
    regs[i + 1] = args[i];
  }

  std::size_t pc = 0;
  std::uint64_t since_charge = 0;
  auto flush_charge = [&](std::uint64_t n) {
    std::uint64_t units = n * kUnitsPerInstr;
    engine.alu(units);
    if (sched::Task* t = sched.current()) t->charge_kernel(units);
  };

  for (;;) {
    Result<VmInstr> fi = fetch(pc, stats);
    if (!fi) {
      flush_charge(since_charge);
      return fi.error();
    }
    const VmInstr in = fi.value();
    ++stats->instructions;
    if (++since_charge >= kChargeBatch) {
      flush_charge(since_charge);
      since_charge = 0;
    }

    auto jump_to = [&](std::int64_t target) -> Errno {
      if (target < 0) return Errno::kEFAULT;
      if (static_cast<std::size_t>(target) <= pc) {
        // Back-edge: preemption point; the watchdog may kill us here.
        ++stats->back_edges;
        flush_charge(since_charge);
        since_charge = 0;
        if (!sched.preempt_point()) return Errno::kEKILLED;
      }
      pc = static_cast<std::size_t>(target);
      return Errno::kOk;
    };

    std::int64_t& r1 = regs[in.r1 % kVmRegs];
    std::int64_t& r2 = regs[in.r2 % kVmRegs];

    switch (in.op) {
      case VmOp::kHalt:
        flush_charge(since_charge);
        return Errno::kEINVAL;  // fell off without kRet
      case VmOp::kLoadI:
        r1 = in.imm;
        break;
      case VmOp::kMov:
        r1 = r2;
        break;
      case VmOp::kAdd:
        r1 = static_cast<std::int64_t>(static_cast<std::uint64_t>(r1) +
                                       static_cast<std::uint64_t>(r2));
        break;
      case VmOp::kSub:
        r1 = static_cast<std::int64_t>(static_cast<std::uint64_t>(r1) -
                                       static_cast<std::uint64_t>(r2));
        break;
      case VmOp::kMul:
        r1 = static_cast<std::int64_t>(static_cast<std::uint64_t>(r1) *
                                       static_cast<std::uint64_t>(r2));
        break;
      case VmOp::kDiv:
        if (r2 == 0) {
          flush_charge(since_charge);
          return Errno::kEINVAL;
        }
        r1 /= r2;
        break;
      case VmOp::kMod:
        if (r2 == 0) {
          flush_charge(since_charge);
          return Errno::kEINVAL;
        }
        r1 %= r2;
        break;
      case VmOp::kAddI:
        r1 = static_cast<std::int64_t>(static_cast<std::uint64_t>(r1) +
                                       static_cast<std::uint64_t>(in.imm));
        break;
      case VmOp::kLd: {
        ++stats->seg_checks;
        std::int64_t v = 0;
        Errno e = gdt_.load(data_sel_,
                            static_cast<std::uint64_t>(r2 + in.imm), &v,
                            sizeof(v));
        if (e != Errno::kOk) {
          flush_charge(since_charge);
          return e;
        }
        r1 = v;
        break;
      }
      case VmOp::kLd1: {
        ++stats->seg_checks;
        std::uint8_t v = 0;
        Errno e = gdt_.load(data_sel_,
                            static_cast<std::uint64_t>(r2 + in.imm), &v, 1);
        if (e != Errno::kOk) {
          flush_charge(since_charge);
          return e;
        }
        r1 = v;
        break;
      }
      case VmOp::kSt: {
        ++stats->seg_checks;
        Errno e = gdt_.store(data_sel_,
                             static_cast<std::uint64_t>(r2 + in.imm), &r1,
                             sizeof(r1));
        if (e != Errno::kOk) {
          flush_charge(since_charge);
          return e;
        }
        break;
      }
      case VmOp::kSt1: {
        ++stats->seg_checks;
        std::uint8_t v = static_cast<std::uint8_t>(r1);
        Errno e = gdt_.store(data_sel_,
                             static_cast<std::uint64_t>(r2 + in.imm), &v, 1);
        if (e != Errno::kOk) {
          flush_charge(since_charge);
          return e;
        }
        break;
      }
      case VmOp::kJmp: {
        Errno e = jump_to(in.imm);
        if (e != Errno::kOk) return e;
        continue;  // pc already set
      }
      case VmOp::kJz:
        if (r1 == 0) {
          Errno e = jump_to(in.imm);
          if (e != Errno::kOk) return e;
          continue;
        }
        break;
      case VmOp::kJnz:
        if (r1 != 0) {
          Errno e = jump_to(in.imm);
          if (e != Errno::kOk) return e;
          continue;
        }
        break;
      case VmOp::kJlt:
        if (r1 < r2) {
          Errno e = jump_to(in.imm);
          if (e != Errno::kOk) return e;
          continue;
        }
        break;
      case VmOp::kRet:
        flush_charge(since_charge);
        return regs[0];
    }
    ++pc;
  }
}

int FunctionTable::install(std::vector<VmInstr> code, std::size_t data_size,
                           SafetyMode mode, std::string name) {
  funcs_.push_back(std::make_unique<VmFunction>(std::move(code), data_size,
                                                mode, gdt_, std::move(name)));
  return static_cast<int>(funcs_.size()) - 1;
}

VmFunction* FunctionTable::get(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= funcs_.size()) return nullptr;
  return funcs_[id].get();
}

}  // namespace usk::cosy
