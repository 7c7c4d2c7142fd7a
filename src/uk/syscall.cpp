#include "uk/syscall.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <utility>

#include "fs/types.hpp"

namespace usk::uk {

namespace {

constexpr auto kStatBytes = static_cast<std::uint16_t>(sizeof(fs::StatBuf));

constexpr ArgSig imm() { return {ArgType::kImm}; }
constexpr ArgSig fd() { return {ArgType::kFd}; }
constexpr ArgSig path() { return {ArgType::kPath}; }
/// A buffer whose element count is register `len_arg`.
constexpr ArgSig in(std::int8_t len_arg) { return {ArgType::kIn, len_arg, 1}; }
constexpr ArgSig out(std::int8_t len_arg, std::uint16_t elem = 1) {
  return {ArgType::kOut, len_arg, elem};
}
/// A buffer of fixed size.
constexpr ArgSig out_of(std::uint16_t bytes) {
  return {ArgType::kOut, -1, bytes};
}
constexpr ArgSig inout_of(std::uint16_t bytes) {
  return {ArgType::kInOut, -1, bytes};
}

}  // namespace

constexpr std::array<SysSig, static_cast<std::size_t>(Sys::kMaxSys)>
    kSysTable = [] {
  std::array<SysSig, static_cast<std::size_t>(Sys::kMaxSys)> t{};
  auto set = [&t](Sys nr, const char* name, RetType ret,
                  std::initializer_list<ArgSig> args, bool nestable = true) {
    SysSig& s = t[static_cast<std::size_t>(nr)];
    s.name = name;
    s.ret = ret;
    s.nestable = nestable;
    for (const ArgSig& a : args) s.args[s.nargs++] = a;
  };
  using R = RetType;
  using S = Sys;
  // File calls (uk::Kernel).
  set(S::kOpen, "open", R::kFdNew, {path(), imm(), imm()});
  set(S::kClose, "close", R::kFdClose, {fd()});
  set(S::kRead, "read", R::kCount, {fd(), out(2), imm()});
  set(S::kWrite, "write", R::kCount, {fd(), in(2), imm()});
  set(S::kLseek, "lseek", R::kCount, {fd(), imm(), imm()});
  set(S::kStat, "stat", R::kCount, {path(), out_of(kStatBytes)});
  set(S::kFstat, "fstat", R::kCount, {fd(), out_of(kStatBytes)});
  set(S::kReaddir, "readdir", R::kCount, {fd(), out(2), imm()});
  set(S::kUnlink, "unlink", R::kCount, {path()});
  set(S::kMkdir, "mkdir", R::kCount, {path(), imm()});
  set(S::kRmdir, "rmdir", R::kCount, {path()});
  set(S::kRename, "rename", R::kCount, {path(), path()});
  set(S::kTruncate, "truncate", R::kCount, {path(), imm()});
  set(S::kGetpid, "getpid", R::kCount, {});
  set(S::kSync, "sync", R::kCount, {});
  set(S::kLink, "link", R::kCount, {path(), path()});
  set(S::kChmod, "chmod", R::kCount, {path(), imm()});
  set(S::kDup, "dup", R::kFdNew, {fd()});
  set(S::kFsync, "fsync", R::kCount, {fd()});
  set(S::kFdatasync, "fdatasync", R::kCount, {fd()});
  // Consolidated calls (uk::Kernel, net::Net).
  set(S::kReaddirPlus, "readdirplus", R::kCount,
      {path(), out(2), imm(), inout_of(sizeof(std::uint64_t))});
  set(S::kOpenReadClose, "open_read_close", R::kCount,
      {path(), out(2), imm(), imm()});
  set(S::kOpenWriteClose, "open_write_close", R::kCount,
      {path(), in(2), imm(), imm(), imm()});
  set(S::kOpenFstat, "open_fstat", R::kCount, {path(), out_of(kStatBytes)});
  set(S::kAcceptRecv, "accept_recv", R::kCount,
      {fd(), out(2), imm(), out_of(sizeof(int))});
  set(S::kSendfile, "sendfile", R::kCount, {fd(), path(), imm(), imm()});
  set(S::kCosy, "cosy", R::kCount, {}, /*nestable=*/false);
  // Network family (net::Net).
  set(S::kSocket, "socket", R::kFdNew, {imm()});
  set(S::kBind, "bind", R::kCount, {fd(), imm()});
  set(S::kListen, "listen", R::kCount, {fd(), imm()});
  set(S::kAccept, "accept", R::kFdNew, {fd()});
  set(S::kConnect, "connect", R::kCount, {fd(), imm()});
  set(S::kSend, "send", R::kCount, {fd(), in(2), imm()});
  set(S::kRecv, "recv", R::kCount, {fd(), out(2), imm()});
  set(S::kShutdown, "shutdown", R::kCount, {fd(), imm()});
  set(S::kEpollCreate, "epoll_create", R::kFdNew, {});
  set(S::kEpollCtl, "epoll_ctl", R::kCount, {fd(), imm(), fd(), imm()});
  set(S::kEpollWait, "epoll_wait", R::kCount,
      {fd(), out(2, kEpollEventBytes), imm(), imm()});
  // Rings (ring::RingDev).
  set(S::kRingSetup, "ring_setup", R::kFdNew, {imm(), imm()}, false);
  set(S::kRingEnter, "ring_enter", R::kCount, {fd(), imm(), imm(), imm()},
      false);
  return t;
}();

static_assert(std::ranges::all_of(kSysTable, [](const SysSig& s) {
                return std::cmp_less_equal(
                    std::ranges::count(s.args, ArgType::kPath, &ArgSig::type),
                    kMaxPathArgs);
              }), "a table row takes more path registers than kMaxPathArgs");

std::size_t SysSig::buf_bytes(std::size_t i, SysArgs a) const {
  const ArgSig& s = args[i];
  if (s.len_arg < 0) return s.size;
  const std::uint64_t n = a.at(static_cast<std::size_t>(s.len_arg));
  if (n > std::numeric_limits<std::size_t>::max() / s.size) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(n) * s.size;
}

const char* sys_name(Sys nr) {
  const char* name = sys_sig(nr).name;
  return name != nullptr ? name : "sys?";
}

}  // namespace usk::uk
