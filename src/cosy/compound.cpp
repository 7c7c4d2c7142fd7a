#include "cosy/compound.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace usk::cosy {

// --- builder -------------------------------------------------------------------

Arg CompoundBuilder::str(std::string_view s) {
  std::int64_t off = static_cast<std::int64_t>(c_.strpool.size());
  c_.strpool.insert(c_.strpool.end(), s.begin(), s.end());
  return Arg{ArgKind::kStr, off, static_cast<std::int64_t>(s.size())};
}

int CompoundBuilder::emit(OpRecord rec) {
  c_.ops.push_back(rec);
  return static_cast<int>(c_.ops.size()) - 1;
}

int CompoundBuilder::sys(uk::Sys nr, std::span<const Arg> args,
                         int dst_local) {
  OpRecord r;
  r.op = Op::kSys;
  r.nargs = static_cast<std::uint8_t>(std::min(args.size(), kMaxArgs));
  for (std::size_t i = 0; i < r.nargs; ++i) r.args[i] = args[i];
  r.aux = static_cast<std::int32_t>(nr);
  r.aux2 = dst_local;
  return emit(r);
}

using uk::Sys;

int CompoundBuilder::open(Arg path, Arg flags, Arg mode, int dst_local) {
  return sys(Sys::kOpen, std::array{path, flags, mode}, dst_local);
}
int CompoundBuilder::close(Arg fd) {
  return sys(Sys::kClose, std::array{fd});
}
int CompoundBuilder::read(Arg fd, Arg shared_dst, Arg len, int dst_local) {
  return sys(Sys::kRead, std::array{fd, shared_dst, len}, dst_local);
}
int CompoundBuilder::write(Arg fd, Arg shared_src, Arg len, int dst_local) {
  return sys(Sys::kWrite, std::array{fd, shared_src, len}, dst_local);
}
int CompoundBuilder::lseek(Arg fd, Arg off, Arg whence, int dst_local) {
  return sys(Sys::kLseek, std::array{fd, off, whence}, dst_local);
}
int CompoundBuilder::stat(Arg path, Arg shared_dst) {
  return sys(Sys::kStat, std::array{path, shared_dst});
}
int CompoundBuilder::fstat(Arg fd, Arg shared_dst) {
  return sys(Sys::kFstat, std::array{fd, shared_dst});
}
int CompoundBuilder::getpid(int dst_local) {
  return sys(Sys::kGetpid, {}, dst_local);
}
int CompoundBuilder::unlink(Arg path) {
  return sys(Sys::kUnlink, std::array{path});
}
int CompoundBuilder::mkdir(Arg path, Arg mode) {
  return sys(Sys::kMkdir, std::array{path, mode});
}
int CompoundBuilder::readdir(Arg fd, Arg shared_dst, Arg max_bytes,
                             int dst_local) {
  return sys(Sys::kReaddir, std::array{fd, shared_dst, max_bytes}, dst_local);
}

int CompoundBuilder::set_local(int dst_local, Arg v) {
  OpRecord r;
  r.op = Op::kSet;
  r.nargs = 1;
  r.aux = dst_local;
  r.args[0] = v;
  return emit(r);
}

int CompoundBuilder::arith(int dst_local, ArithOp aop, Arg lhs, Arg rhs) {
  OpRecord r;
  r.op = Op::kArith;
  r.nargs = 2;
  r.aux = dst_local;
  r.aux2 = static_cast<std::int32_t>(aop);
  r.args[0] = lhs;
  r.args[1] = rhs;
  return emit(r);
}

int CompoundBuilder::jmp(int target) {
  OpRecord r;
  r.op = Op::kJmp;
  r.aux = target;
  return emit(r);
}

int CompoundBuilder::jz(Arg cond, int target) {
  OpRecord r;
  r.op = Op::kJz;
  r.nargs = 1;
  r.args[0] = cond;
  r.aux = target;
  return emit(r);
}

int CompoundBuilder::jnz(Arg cond, int target) {
  OpRecord r;
  r.op = Op::kJnz;
  r.nargs = 1;
  r.args[0] = cond;
  r.aux = target;
  return emit(r);
}

int CompoundBuilder::jneg(Arg cond, int target) {
  OpRecord r;
  r.op = Op::kJneg;
  r.nargs = 1;
  r.args[0] = cond;
  r.aux = target;
  return emit(r);
}

int CompoundBuilder::call_func(int func_id, std::vector<Arg> fargs,
                               int dst_local) {
  OpRecord r;
  r.op = Op::kCallFunc;
  r.nargs = static_cast<std::uint8_t>(std::min(fargs.size(), kMaxFuncArgs));
  for (std::size_t i = 0; i < r.nargs; ++i) r.args[i] = fargs[i];
  r.aux = func_id;
  r.aux2 = dst_local;
  return emit(r);
}

void CompoundBuilder::patch_target(int op_index, int target) {
  c_.ops.at(static_cast<std::size_t>(op_index)).aux = target;
}

std::vector<OpRecord> CompoundBuilder::take_ops_from(std::size_t begin) {
  std::vector<OpRecord> out(c_.ops.begin() + static_cast<std::ptrdiff_t>(begin),
                            c_.ops.end());
  c_.ops.resize(begin);
  return out;
}

void CompoundBuilder::append_ops(const std::vector<OpRecord>& ops) {
  c_.ops.insert(c_.ops.end(), ops.begin(), ops.end());
}

Compound CompoundBuilder::finish() {
  OpRecord end;
  end.op = Op::kEnd;
  emit(end);
  return std::move(c_);
}

// --- wire format ---------------------------------------------------------------

namespace {
constexpr std::uint32_t kCompoundMagic = 0x59534F43;  // "COSY"
constexpr std::uint32_t kCompoundVersion = 2;

struct WireHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t op_count;
  std::uint32_t strpool_len;
};
}  // namespace

std::vector<std::uint8_t> serialize(const Compound& c) {
  WireHeader hdr{kCompoundMagic, kCompoundVersion,
                 static_cast<std::uint32_t>(c.ops.size()),
                 static_cast<std::uint32_t>(c.strpool.size())};
  std::vector<std::uint8_t> out(sizeof(hdr) +
                                c.ops.size() * sizeof(OpRecord) +
                                c.strpool.size());
  std::size_t off = 0;
  std::memcpy(out.data(), &hdr, sizeof(hdr));
  off += sizeof(hdr);
  if (!c.ops.empty()) {
    std::memcpy(out.data() + off, c.ops.data(),
                c.ops.size() * sizeof(OpRecord));
  }
  off += c.ops.size() * sizeof(OpRecord);
  if (!c.strpool.empty()) {
    std::memcpy(out.data() + off, c.strpool.data(), c.strpool.size());
  }
  return out;
}

bool deserialize(const std::vector<std::uint8_t>& image, Compound* out) {
  WireHeader hdr;
  if (image.size() < sizeof(hdr)) return false;
  std::memcpy(&hdr, image.data(), sizeof(hdr));
  if (hdr.magic != kCompoundMagic || hdr.version != kCompoundVersion) {
    return false;
  }
  if (hdr.op_count > kMaxOps || hdr.strpool_len > kMaxStrPool) return false;
  std::size_t need = sizeof(hdr) +
                     static_cast<std::size_t>(hdr.op_count) *
                         sizeof(OpRecord) +
                     hdr.strpool_len;
  if (image.size() != need) return false;

  out->ops.resize(hdr.op_count);
  std::size_t off = sizeof(hdr);
  if (hdr.op_count != 0) {
    std::memcpy(out->ops.data(), image.data() + off,
                static_cast<std::size_t>(hdr.op_count) * sizeof(OpRecord));
  }
  off += static_cast<std::size_t>(hdr.op_count) * sizeof(OpRecord);
  out->strpool.assign(
      reinterpret_cast<const char*>(image.data() + off),
      reinterpret_cast<const char*>(image.data() + off) + hdr.strpool_len);
  return true;
}

// --- validation -------------------------------------------------------------------

namespace {

bool arg_ok(const Compound& c, const OpRecord& rec, const Arg& a,
            std::size_t op_index, std::size_t shared_size,
            std::string* reason) {
  switch (a.kind) {
    case ArgKind::kNone:
    case ArgKind::kImm:
      return true;
    case ArgKind::kLocal:
      if (a.a < 0 || a.a >= static_cast<std::int64_t>(kMaxLocals)) {
        *reason = "local index out of range";
        return false;
      }
      return true;
    case ArgKind::kResultOf:
      if (a.a < 0 || a.a >= static_cast<std::int64_t>(op_index)) {
        *reason = "result reference does not point backwards";
        return false;
      }
      return true;
    case ArgKind::kShared:
      if (a.a < 0 || static_cast<std::size_t>(a.a) > shared_size) {
        *reason = "shared-buffer offset out of range";
        return false;
      }
      return true;
    case ArgKind::kStr:
      if (a.a < 0 || a.b < 0 ||
          static_cast<std::size_t>(a.a + a.b) > c.strpool.size()) {
        *reason = "string reference outside pool";
        return false;
      }
      return true;
  }
  *reason = "unknown arg kind";
  (void)rec;
  return false;
}

bool is_known_op(Op op) {
  switch (op) {
    case Op::kEnd:
    case Op::kSys:
    case Op::kSet:
    case Op::kArith:
    case Op::kJmp:
    case Op::kJz:
    case Op::kJnz:
    case Op::kJneg:
    case Op::kCallFunc:
      return true;
  }
  return false;
}

/// A syscall op against its table signature, the way eBPF's verifier
/// checks a helper call against its prototype.
bool sys_ok(const OpRecord& rec, std::string* reason) {
  if (rec.aux < 0 || rec.aux >= static_cast<std::int32_t>(uk::Sys::kMaxSys) ||
      !uk::sys_sig(static_cast<uk::Sys>(rec.aux)).nestable) {
    *reason = "syscall not callable from a compound";
    return false;
  }
  const uk::SysSig& sig = uk::sys_sig(static_cast<uk::Sys>(rec.aux));
  if (rec.nargs != sig.nargs) {
    *reason = std::string("wrong argument count for ") + sig.name;
    return false;
  }
  for (std::size_t i = 0; i < rec.nargs; ++i) {
    const bool is_path = sig.args[i].type == uk::ArgType::kPath;
    if (is_path != (rec.args[i].kind == ArgKind::kStr)) {
      *reason = is_path ? "path argument is not a string"
                        : "string where no path goes";
      return false;
    }
  }
  return true;
}

}  // namespace

ValidationResult validate(const Compound& c, std::size_t shared_size) {
  ValidationResult res;
  if (c.ops.size() > kMaxOps) {
    return {false, 0, "too many ops"};
  }
  if (c.strpool.size() > kMaxStrPool) {
    return {false, 0, "string pool too large"};
  }
  if (c.ops.empty() || c.ops.back().op != Op::kEnd) {
    return {false, c.ops.empty() ? 0 : c.ops.size() - 1,
            "compound must end with kEnd"};
  }
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    const OpRecord& rec = c.ops[i];
    if (!is_known_op(rec.op)) {
      return {false, i, "unknown opcode"};
    }
    if (rec.nargs > (rec.op == Op::kCallFunc ? kMaxFuncArgs : kMaxArgs)) {
      return {false, i, "too many args"};
    }
    std::string reason;
    if (rec.op == Op::kSys && !sys_ok(rec, &reason)) return {false, i, reason};
    for (std::size_t a = 0; a < rec.nargs; ++a) {
      if (!arg_ok(c, rec, rec.args[a], i, shared_size, &reason)) {
        return {false, i, reason};
      }
    }
    // dst locals in range.
    if ((rec.op == Op::kSet || rec.op == Op::kArith) &&
        (rec.aux < 0 || rec.aux >= static_cast<std::int32_t>(kMaxLocals))) {
      return {false, i, "destination local out of range"};
    }
    if (rec.aux2 >= static_cast<std::int32_t>(kMaxLocals)) {
      return {false, i, "result local out of range"};
    }
    if (rec.op == Op::kArith &&
        (rec.aux2 < 0 ||
         rec.aux2 > static_cast<std::int32_t>(ArithOp::kNe))) {
      return {false, i, "bad arith op"};
    }
    // Jump targets in range.
    if (rec.op == Op::kJmp || rec.op == Op::kJz || rec.op == Op::kJnz ||
        rec.op == Op::kJneg) {
      if (rec.aux < 0 || rec.aux >= static_cast<std::int32_t>(c.ops.size())) {
        return {false, i, "jump target out of range"};
      }
    }
  }
  return res;
}

}  // namespace usk::cosy
