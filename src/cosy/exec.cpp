#include "cosy/exec.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "base/klog.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::cosy {

namespace {
constexpr std::uint64_t kMaxExecutedOps = 1 << 22;  // hard stop (defence in depth)
}

CosyResult CosyExtension::execute(uk::Process& p, const Compound& c,
                                  SharedBuffer& shared) {
  CosyResult out;
  // Supervision: open an InvocationGuard BEFORE the syscall scope so the
  // supervisor's gateway hook (which fires in the scope epilogue) still
  // sees this thread bound to the extension. If the caller already opened
  // a guard for this extension (a routed invocation or a re-admission
  // probe), reuse it instead of nesting a second accounting frame.
  std::optional<sup::InvocationGuard> own_guard;
  sup::InvocationGuard* guard = sup::InvocationGuard::current();
  if (sup_ == nullptr) {
    guard = nullptr;
  } else if (guard == nullptr || !guard->matches(*sup_, sup_id_)) {
    own_guard.emplace(*sup_, sup_id_, &p.task, sup::Route::kKernel,
                      &out.ret);
    guard = &*own_guard;
  }
  // Compound-entry span, declared BEFORE the syscall scope so the scope
  // epilogue attributes the kCosy crossing to it. Destruction order then
  // publishes the span after attribution lands.
  trace::SpanScope span("cosy.compound", trace::SpanVehicle::kCosy,
                        sup_ != nullptr ? sup_id_ : -1);
  span.watch_result(&out.ret);
  uk::Kernel::Scope scope(k_, p, uk::Sys::kCosy);
  if (SysRet g = scope.gate(); g != 0) {
    out.ret = g;
    return out;
  }
  USK_TRACE_LATENCY("cosy", "execute");
  USK_TRACEPOINT("cosy", "execute", c.ops.size());
  ++stats_.compounds;

  ValidationResult v = validate(c, shared.size());
  if (!v.ok) {
    ++stats_.validation_failures;
    base::klogf(base::LogLevel::kErr, "cosy: rejected compound at op %zu: %s",
                v.bad_op, v.reason.c_str());
    out.ret = scope.fail(Errno::kEINVAL);
    return out;
  }

  out.results.assign(c.ops.size(), 0);
  auto& engine = k_.engine();
  auto& sched = k_.scheduler();

  auto charge = [&](std::uint64_t units) {
    engine.alu(units);
    p.task.charge_kernel(units);
  };

  // Resolve an argument to an integer.
  auto val = [&](const Arg& a) -> std::int64_t {
    switch (a.kind) {
      case ArgKind::kImm:
        return a.a;
      case ArgKind::kLocal:
        return out.locals[a.a];
      case ArgKind::kResultOf:
        return out.results[static_cast<std::size_t>(a.a)];
      case ArgKind::kShared:
        return a.a;  // offsets are their own value
      case ArgKind::kStr:
      case ArgKind::kNone:
        return 0;
    }
    return 0;
  };
  auto uval = [&](const Arg& a) {
    return static_cast<std::uint64_t>(val(a));
  };
  auto len_of = [&](const Arg& a) {
    return static_cast<std::size_t>(std::max<std::int64_t>(0, val(a)));
  };

  // A shared-buffer argument as a handler pointer: static (kShared) or
  // computed at run time (local/imm/result). An out-of-range window, or
  // an argument that is no buffer at all, becomes nullptr, so the
  // handler's own check order (EBADF before EFAULT) decides the errno.
  auto shared_arg = [&](const Arg& a, std::size_t len) -> std::uint64_t {
    if (a.kind == ArgKind::kNone) return 0;
    std::span<std::byte> s = shared.range(val(a), len);
    return s.size() == len ? uk::Kernel::uarg(s.data()) : 0;
  };
  // A string-pool path as a NUL-terminated kernel string. Anything past
  // kMaxPath is cut off; the handler then sees a kMaxPath-long string
  // and answers ENAMETOOLONG, as it does for a classic caller.
  char kpaths[uk::kMaxPathArgs][uk::Kernel::kMaxPath + 1];
  auto path_arg = [&](const Arg& a, char* kpath) -> std::uint64_t {
    const std::size_t n =
        std::min(static_cast<std::size_t>(a.b), uk::Kernel::kMaxPath);
    std::memcpy(kpath, c.strpool.data() + a.a, n);
    kpath[n] = '\0';
    return uk::Kernel::uarg(kpath);
  };

  std::size_t pc = 0;
  std::uint64_t executed = 0;
  bool done = false;

  // Every syscall op runs the kernel's own handler through the ledger, in
  // kernel-buffer mode. The ledger holds the descriptors THIS compound
  // opened, so an abort after any prefix (kfail, quota overrun, watchdog
  // kill, a faulting op) closes them: the caller never learned their
  // numbers, so nobody else would.
  uk::Kernel::FdLedger ledger(k_, p);
  auto abort = [&](Errno e) {
    stats_.fds_rolled_back += ledger.rollback().size();
    ++stats_.aborted;
    out.ret = scope.fail(e);
    return out;
  };
  auto fault_abort = [&](Errno e) {
    ++stats_.fault_aborts;
    return abort(e);
  };
  // A quota overrun kills only the offending invocation: same rollback as
  // a fault abort, surfaced as EDQUOT and counted separately.
  auto quota_abort = [&] {
    ++stats_.quota_aborts;
    return abort(Errno::kEDQUOT);
  };

  // Deterministic fuel exhaustion: the harness can void this compound's
  // fuel budget at entry -- before op 0, so no side effect has happened
  // and a fallback retry is always safe (bench_supervisor's storm mode).
  if (auto f = USK_FAIL_POINT(fault::Site::kCosyFuel); f.fail) {
    if (guard != nullptr) guard->force_kind(sup::ViolationKind::kQuotaFuel);
    return quota_abort();
  } else if (f.transient) {
    charge(50);  // simulated budget-refill stall
  }

  while (!done) {
    if (executed++ > kMaxExecutedOps) return abort(Errno::kETIME);
    // The injection point sits BETWEEN ops: a compound can die after any
    // prefix, which is exactly the partial-completion schedule the
    // rollback above must survive.
    if (auto f = USK_FAIL_POINT(fault::Site::kCosyOp); f.fail) {
      return fault_abort(f.err);
    }
    // kdl: deadline/cancel is checked at the same between-op boundary --
    // the abort reuses the fault path's fd rollback, so an expired
    // compound leaves nothing behind after any prefix either.
    if (Errno de = k_.dl().fail_fast(&p.task, dl::Kdl::Site::kCosy);
        de != Errno::kOk) {
      return fault_abort(de);
    }
    const std::size_t cur = pc;
    const OpRecord& rec = c.ops[cur];
    charge(decode_cost_);
    ++stats_.ops_executed;
    ++out.ops_run;

    if (guard != nullptr) {
      // One fuel unit per decoded op; VM instructions add theirs below.
      if (!guard->charge_fuel(1)) return quota_abort();
      if (guard->over_unit_quota()) {
        guard->force_kind(sup::ViolationKind::kQuotaUnits);
        return quota_abort();
      }
    }

    SysRet r = 0;
    bool jumped = false;

    switch (rec.op) {
      case Op::kEnd:
        done = true;
        continue;

      case Op::kSys: {
        // Arguments by signature: values first (a buffer's length as a
        // non-negative count), then paths and buffers as kernel pointers.
        const auto nr = static_cast<uk::Sys>(rec.aux);
        const uk::SysSig& sig = uk::sys_sig(nr);
        uk::SysArgs regs;
        for (std::size_t i = 0; i < rec.nargs; ++i) {
          regs.at(i) = uval(rec.args[i]);
        }
        std::size_t paths = 0;
        for (std::size_t i = 0; i < rec.nargs; ++i) {
          const uk::ArgSig& as = sig.args[i];
          if (as.type == uk::ArgType::kPath) {
            regs.at(i) = path_arg(rec.args[i], kpaths[paths++]);
          } else if (uk::SysSig::is_buffer(as.type)) {
            if (as.len_arg >= 0) {
              const auto li = static_cast<std::size_t>(as.len_arg);
              regs.at(li) = len_of(rec.args[li]);
            }
            regs.at(i) = shared_arg(rec.args[i], sig.buf_bytes(i, regs));
          }
        }
        const std::size_t held = ledger.live();
        r = ledger.call(nr, regs, uk::BufMode::kKernel);
        // Zero copy: the bytes the call moved through shared memory.
        for (std::size_t i = 0; i < rec.nargs; ++i) {
          const uk::ArgSig& as = sig.args[i];
          if (!uk::SysSig::is_buffer(as.type)) continue;
          if (as.len_arg >= 0 && r > 0) {
            shared.bytes_via_shared += static_cast<std::uint64_t>(r) * as.size;
          } else if (as.len_arg < 0 && r >= 0) {
            shared.bytes_via_shared += as.size;
          }
        }
        // The fd quota counts every descriptor the compound holds, also
        // one a call hands back through an out slot (accept_recv).
        if (ledger.live() > held && guard != nullptr &&
            !guard->check_fds(ledger.live())) {
          return quota_abort();
        }
        break;
      }

      case Op::kSet:
        out.locals[rec.aux] = val(rec.args[0]);
        break;
      case Op::kArith: {
        std::int64_t lhs = val(rec.args[0]);
        std::int64_t rhs = val(rec.args[1]);
        std::int64_t res = 0;
        // Wrapping two's-complement arithmetic (compute in unsigned to
        // avoid signed-overflow UB in the interpreter itself).
        auto u = [](std::int64_t x) { return static_cast<std::uint64_t>(x); };
        switch (static_cast<ArithOp>(rec.aux2)) {
          case ArithOp::kAdd:
            res = static_cast<std::int64_t>(u(lhs) + u(rhs));
            break;
          case ArithOp::kSub:
            res = static_cast<std::int64_t>(u(lhs) - u(rhs));
            break;
          case ArithOp::kMul:
            res = static_cast<std::int64_t>(u(lhs) * u(rhs));
            break;
          case ArithOp::kDiv:
            if (rhs == 0) return abort(Errno::kEINVAL);
            res = lhs / rhs;
            break;
          case ArithOp::kMod:
            if (rhs == 0) return abort(Errno::kEINVAL);
            res = lhs % rhs;
            break;
          case ArithOp::kLt: res = lhs < rhs ? 1 : 0; break;
          case ArithOp::kLe: res = lhs <= rhs ? 1 : 0; break;
          case ArithOp::kGt: res = lhs > rhs ? 1 : 0; break;
          case ArithOp::kGe: res = lhs >= rhs ? 1 : 0; break;
          case ArithOp::kEq: res = lhs == rhs ? 1 : 0; break;
          case ArithOp::kNe: res = lhs != rhs ? 1 : 0; break;
        }
        out.locals[rec.aux] = res;
        break;
      }

      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
      case Op::kJneg: {
        bool take = rec.op == Op::kJmp;
        if (!take) {
          std::int64_t cond = val(rec.args[0]);
          take = (rec.op == Op::kJz && cond == 0) ||
                 (rec.op == Op::kJnz && cond != 0) ||
                 (rec.op == Op::kJneg && cond < 0);
        }
        if (take) {
          std::size_t target = static_cast<std::size_t>(rec.aux);
          if (target <= cur) {
            // Back-edge: preemption point for the infinite-loop defence.
            ++stats_.back_edges;
            if (!sched.preempt_point()) {
              // The watchdog kill is a mid-compound abort like any other:
              // roll back this compound's fds so the kill cannot leak
              // descriptors into the process.
              ++stats_.watchdog_rollbacks;
              base::klogf(base::LogLevel::kCrit,
                          "cosy: compound killed by watchdog at op %zu", cur);
              return abort(Errno::kEKILLED);
            }
          }
          pc = target;
          jumped = true;
        }
        break;
      }

      case Op::kCallFunc: {
        VmFunction* fn = funcs_.get(rec.aux);
        if (fn == nullptr) return abort(Errno::kEINVAL);
        std::int64_t fargs[kMaxFuncArgs] = {};
        for (std::size_t i = 0; i < rec.nargs; ++i) fargs[i] = val(rec.args[i]);
        VmRunStats vstats;
        Result<std::int64_t> res =
            fn->run(std::span(fargs, rec.nargs), sched, engine, vm_costs_,
                    guard != nullptr ? &vstats : nullptr);
        if (!res) {
          // A protection fault or watchdog kill inside the user function
          // aborts the compound (the paper's crash-the-module policy), and
          // a violator loses any earned trust.
          if (trust_threshold_ > 0 &&
              fn->mode() == SafetyMode::kDataSegmentOnly) {
            fn->set_mode(SafetyMode::kIsolatedSegments);
            ++stats_.trust_demotions;
            base::klogf(base::LogLevel::kWarn,
                        "cosy: function '%s' re-isolated after violation",
                        fn->name().c_str());
            // The supervisor keeps the re-isolation in its event ledger
            // so operators see the trust revocation, not just the abort.
            if (sup_ != nullptr) sup_->record_reisolation(sup_id_, fn->name());
          }
          fn->clean_runs = 0;
          return abort(res.error());
        }
        // Every interpreted VM instruction burns one fuel unit.
        if (guard != nullptr && !guard->charge_fuel(vstats.instructions)) {
          return quota_abort();
        }
        // Heuristic trust: enough clean executions turn the expensive
        // isolation off (paper §2.4).
        if (trust_threshold_ > 0 &&
            ++fn->clean_runs >= trust_threshold_ &&
            fn->mode() == SafetyMode::kIsolatedSegments) {
          fn->set_mode(SafetyMode::kDataSegmentOnly);
          ++stats_.trust_promotions;
          base::klogf(base::LogLevel::kInfo,
                      "cosy: function '%s' trusted after %llu clean runs",
                      fn->name().c_str(),
                      static_cast<unsigned long long>(fn->clean_runs));
        }
        r = res.value();
        break;
      }
    }

    out.results[cur] = r;
    if (rec.aux2 >= 0 && rec.op != Op::kArith) {
      out.locals[rec.aux2] = r;
    }
    if (!jumped) ++pc;
  }

  out.ret = scope.done(0);
  return out;
}

CosyResult CosyExtension::execute_image(
    uk::Process& p, const std::vector<std::uint8_t>& image,
    SharedBuffer& shared) {
  Compound c;
  if (!deserialize(image, &c)) {
    CosyResult out;
    uk::Kernel::Scope scope(k_, p, uk::Sys::kCosy);
    if (SysRet g = scope.gate(); g != 0) {
      out.ret = g;
      return out;
    }
    ++stats_.compounds;
    ++stats_.validation_failures;
    base::klogf(base::LogLevel::kErr,
                "cosy: rejected malformed compound image (%zu bytes)",
                image.size());
    out.ret = scope.fail(Errno::kEINVAL);
    return out;
  }
  return execute(p, c, shared);
}

}  // namespace usk::cosy
