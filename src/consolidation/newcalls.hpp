// Consolidated system calls (paper §2.2).
//
// "We found several promising system call patterns, including
// open-read-close, open-write-close, open-fstat, and readdir-stat. We
// implemented several new system calls to measure the improvements."
//
// Each call performs the work of a whole sequence behind ONE boundary
// crossing, and readdirplus additionally collapses the per-file stat path
// copies into a single packed result buffer -- both context switches and
// data copies are saved, as in NFSv3's READDIRPLUS.
//
// The server-side pair applies the same idea to the accept->recv->send->
// close heavy path the syscall-graph miner finds in web-server traces.
// accept_recv collapses the connection prologue -- accept(2) plus the
// read of the first request -- into one crossing. sendfile collapses the
// whole response path (open/read.../send.../close) into one crossing AND
// moves the file bytes kernel-side, MemFs page -> socket queue, so the
// payload never visits user space at all: the only user copies are the
// path (in) and the returned count.
//
// Each is a table handler (uk::Kernel; accept_recv and sendfile are
// net::Net's), reached through the gateway like any classic call; these
// are its typed wrappers. The two server calls open their span before the
// gateway, so the Scope epilogue attributes the crossing to it before it
// publishes.
#pragma once

#include "trace/span.hpp"
#include "uk/kernel.hpp"

namespace usk::consolidation {

/// readdirplus: names + stat information for the files of a directory.
/// Fills `ubuf` with packed uk::DirentPlusHdr + name records starting at
/// *`ucookie` (0 on the first call); updates the cookie for resumption.
/// Returns bytes written, 0 at end of directory.
inline SysRet sys_readdirplus(uk::Kernel& k, uk::Process& p,
                              const char* upath, void* ubuf, std::size_t n,
                              std::uint64_t* ucookie) {
  return k.syscall(p, uk::Sys::kReaddirPlus,
                   {uk::Kernel::uarg(upath), uk::Kernel::uarg(ubuf), n,
                    uk::Kernel::uarg(ucookie)});
}

/// open-read-close in one crossing: reads up to `n` bytes at `offset`.
inline SysRet sys_open_read_close(uk::Kernel& k, uk::Process& p,
                                  const char* upath, void* ubuf,
                                  std::size_t n, std::uint64_t offset) {
  return k.syscall(p, uk::Sys::kOpenReadClose,
                   {uk::Kernel::uarg(upath), uk::Kernel::uarg(ubuf), n,
                    offset});
}

/// open-write-close in one crossing; `flags` may include kOCreat/kOTrunc/
/// kOAppend. Returns bytes written.
inline SysRet sys_open_write_close(uk::Kernel& k, uk::Process& p,
                                   const char* upath, const void* ubuf,
                                   std::size_t n, std::uint64_t offset,
                                   int flags) {
  return k.syscall(p, uk::Sys::kOpenWriteClose,
                   {uk::Kernel::uarg(upath), uk::Kernel::uarg(ubuf), n, offset,
                    uk::Kernel::iarg(flags)});
}

/// open-fstat(-close) in one crossing: stat via the open path.
inline SysRet sys_open_fstat(uk::Kernel& k, uk::Process& p,
                             const char* upath, fs::StatBuf* ust) {
  return k.syscall(p, uk::Sys::kOpenFstat,
                   {uk::Kernel::uarg(upath), uk::Kernel::uarg(ust)});
}

/// accept + recv-first-request in one crossing. Installs the accepted
/// connection's fd into *uconnfd and fills `ubuf` with the first bytes of
/// the request (blocking per the listener's nonblock flag for the accept,
/// and per the connection's flag for the recv). Returns bytes received
/// (0 = peer closed before sending).
/// If the fd copy-out faults, the accepted connection is closed again (as
/// Linux's accept4 drops the new file) and the call fails with EFAULT.
inline SysRet sys_accept_recv(uk::Kernel& k, uk::Process& p, int listenfd,
                              void* ubuf, std::size_t n, int* uconnfd) {
  trace::SpanScope span("net.accept_recv", trace::SpanVehicle::kConsolidated);
  return k.syscall(p, uk::Sys::kAcceptRecv,
                   {uk::Kernel::iarg(listenfd), uk::Kernel::uarg(ubuf), n,
                    uk::Kernel::uarg(uconnfd)});
}

/// open+read...+send...+close in one crossing with zero user-space data
/// copies: `count` bytes of the file at `upath` starting at `offset` move
/// kernel-side into the connection behind `sockfd`. Returns bytes sent.
inline SysRet sys_sendfile(uk::Kernel& k, uk::Process& p, int sockfd,
                           const char* upath, std::uint64_t offset,
                           std::size_t count) {
  trace::SpanScope span("net.sendfile", trace::SpanVehicle::kConsolidated);
  return k.syscall(p, uk::Sys::kSendfile,
                   {uk::Kernel::iarg(sockfd), uk::Kernel::uarg(upath), offset,
                    count});
}

}  // namespace usk::consolidation
