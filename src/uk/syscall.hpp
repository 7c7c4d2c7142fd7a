// The syscall vocabulary: numbers, the argument registers, and one static
// signature per number.
//
// Every vehicle names a call by its Sys number and reads the call's shape
// from sys_sig(): which registers hold descriptors, paths or buffers (and
// which register gives a buffer's length), whether the result is a new
// descriptor or releases one, and whether the call may run nested inside
// another call's crossing. The Cosy validator checks compound ops against
// it, the Cosy executor and the ring engine translate arguments by it, and
// the kernel's fd ledger uses it to track descriptors -- the eBPF model of
// one typed helper table that every call is checked against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "base/errno.hpp"

namespace usk::uk {

/// System call numbers. Includes both the classic calls and the new
/// consolidated calls this reproduction adds (§2.2) plus the Cosy entry
/// point (§2.3).
enum class Sys : std::uint16_t {
  kOpen = 1,
  kClose = 2,
  kRead = 3,
  kWrite = 4,
  kLseek = 5,
  kStat = 6,
  kFstat = 7,
  kReaddir = 8,  // getdents-style
  kUnlink = 9,
  kMkdir = 10,
  kRmdir = 11,
  kRename = 12,
  kTruncate = 13,
  kGetpid = 14,
  kSync = 15,
  kLink = 16,
  kChmod = 17,
  kDup = 18,
  kFsync = 19,
  kFdatasync = 20,
  // Consolidated calls:
  kReaddirPlus = 32,
  kOpenReadClose = 33,
  kOpenWriteClose = 34,
  kOpenFstat = 35,
  // Server-side consolidated calls (src/net):
  kAcceptRecv = 36,
  kSendfile = 37,
  // Compound execution:
  kCosy = 48,
  // Network family (src/net):
  kSocket = 50,
  kBind = 51,
  kListen = 52,
  kAccept = 53,
  kConnect = 54,
  kSend = 55,
  kRecv = 56,
  kShutdown = 57,
  kEpollCreate = 58,
  kEpollCtl = 59,
  kEpollWait = 60,
  // Ring syscalls (src/ring): batched submission, the third vehicle.
  kRingSetup = 61,
  kRingEnter = 62,
  kMaxSys = 64,
};

/// Argument registers of the simulated syscall ABI: up to five u64s,
/// pointers reinterpreted.
inline constexpr std::size_t kSysArgs = 5;
struct SysArgs {
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;
  std::uint64_t a4 = 0;

  [[nodiscard]] std::uint64_t& at(std::size_t i) {
    switch (i) {
      case 0: return a0;
      case 1: return a1;
      case 2: return a2;
      case 3: return a3;
      default: return a4;
    }
  }
};

/// What one argument register holds.
enum class ArgType : std::uint8_t {
  kNone = 0,  ///< unused
  kImm,       ///< an integer the handler interprets
  kFd,        ///< a descriptor
  kPath,      ///< a NUL-terminated path
  kIn,        ///< a buffer the call reads
  kOut,       ///< a buffer the call writes
  kInOut,     ///< a buffer the call reads, then writes
};

struct ArgSig {
  ArgType type = ArgType::kNone;
  /// Buffers: the register holding the element count, or -1 when the
  /// buffer has the fixed size `size`.
  std::int8_t len_arg = -1;
  /// Buffers: the element size (len_arg >= 0) or the whole size.
  std::uint16_t size = 0;
};

/// Element size of epoll_wait's event array (net::EpollEvent, pinned by
/// a static_assert in net.cpp so uk need not include net).
inline constexpr std::uint16_t kEpollEventBytes = 8;

/// The most path registers one call takes (rename, link); checked against
/// every row at compile time, so a vehicle may size its path buffers by it.
inline constexpr std::size_t kMaxPathArgs = 2;

/// What the result means beyond success or -errno.
enum class RetType : std::uint8_t {
  kCount,    ///< a count or a status
  kFdNew,    ///< a new descriptor the caller now holds
  kFdClose,  ///< success releases the descriptor in register 0
};

struct SysSig {
  const char* name = nullptr;  ///< nullptr: no such call
  RetType ret = RetType::kCount;
  /// May run inside another call's crossing (Kernel::dispatch_nested).
  /// Every call is, except the three that own their crossing: ring_setup,
  /// ring_enter and cosy (and unknown numbers).
  bool nestable = false;
  std::uint8_t nargs = 0;
  std::array<ArgSig, kSysArgs> args{};

  [[nodiscard]] static bool is_buffer(ArgType t) {
    return t == ArgType::kIn || t == ArgType::kOut || t == ArgType::kInOut;
  }
  /// Bytes the buffer in register `i` spans for the registers `a`;
  /// saturates instead of wrapping.
  [[nodiscard]] std::size_t buf_bytes(std::size_t i, SysArgs a) const;
};

/// The signature table, indexed by number (defined in syscall.cpp).
extern const std::array<SysSig, static_cast<std::size_t>(Sys::kMaxSys)>
    kSysTable;

/// The signature of `nr`; an unknown number gets an empty row (name
/// nullptr, not nestable).
[[nodiscard]] inline const SysSig& sys_sig(Sys nr) {
  static constexpr SysSig kUnknown{};
  const auto idx = static_cast<std::size_t>(nr);
  return idx < kSysTable.size() ? kSysTable[idx] : kUnknown;
}
/// The call's name; "sys?" for an unknown number.
const char* sys_name(Sys nr);

}  // namespace usk::uk
