#include "consolidation/servercalls.hpp"

#include <algorithm>
#include <vector>

#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::consolidation {

using uk::BufMode;
using uk::Kernel;
using uk::Process;
using uk::Sys;

// Both calls are sequences of the kernel's own handlers (accept, recv;
// open, lseek, read, send, close) under one Scope: one crossing, classic
// semantics per step.

SysRet sys_accept_recv(net::Net& /*net*/, Kernel& k, Process& p, int listenfd,
                       void* ubuf, std::size_t n, int* uconnfd) {
  // Span before Scope: destruction order lets the Scope epilogue
  // attribute the kAcceptRecv crossing to this span before it publishes.
  trace::SpanScope span("net.accept_recv",
                        trace::SpanVehicle::kConsolidated);
  Kernel::Scope scope(k, p, Sys::kAcceptRecv);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "accept_recv");
  if (ubuf == nullptr || uconnfd == nullptr) {
    return scope.fail(Errno::kEFAULT);
  }
  const SysRet connfd =
      k.dispatch_nested(p, Sys::kAccept, {Kernel::iarg(listenfd)});
  if (connfd < 0) return scope.done(connfd);
  const SysRet r = k.dispatch_nested(
      p, Sys::kRecv, {Kernel::iarg(connfd), Kernel::uarg(ubuf), n});
  // The accept succeeded; hand the fd back even when the first read
  // failed (EAGAIN on a nonblocking empty connection is normal). A
  // faulted fd copy-out trumps the recv result -- the user can't learn
  // the fd, so EFAULT is what they must see.
  const int fd = static_cast<int>(connfd);
  if (Result<std::size_t> c =
          k.boundary().copy_to_user(p.task, uconnfd, &fd, sizeof(int));
      !c) {
    return scope.fail(c.error());
  }
  return scope.done(r);
}

SysRet sys_sendfile(net::Net& net, Kernel& k, Process& p, int sockfd,
                    const char* upath, std::uint64_t offset,
                    std::size_t count) {
  trace::SpanScope span("net.sendfile", trace::SpanVehicle::kConsolidated);
  Kernel::Scope scope(k, p, Sys::kSendfile);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "sendfile");
  // Descriptor first, path copy-in second: a bad fd must be reported
  // before any boundary copy work is charged (the uniform-EBADF rule).
  if (Result<std::shared_ptr<net::Socket>> rs = net.socket_of(p, sockfd);
      !rs) {
    return scope.fail(rs.error());
  }
  const SysRet fd = k.dispatch_nested(
      p, Sys::kOpen, {Kernel::uarg(upath), fs::kORdOnly});
  if (fd < 0) return scope.done(fd);
  const std::uint64_t ufd = Kernel::iarg(fd);

  // Pump file -> socket entirely kernel-side, one page-sized chunk at a
  // time: read and send share one kernel page in kernel-buffer mode, so
  // no byte of the payload is copied to or from user space.
  constexpr std::size_t kChunk = 4096;
  std::vector<std::byte> page(kChunk);
  const std::uint64_t kpage = Kernel::uarg(page.data());
  std::uint64_t pos = offset;
  std::size_t total = 0;
  SysRet err = 0;
  while (total < count) {
    const std::size_t want = std::min(kChunk, count - total);
    SysRet rd = k.dispatch_nested(p, Sys::kLseek, {ufd, pos, fs::kSeekSet});
    if (rd >= 0) {
      rd = k.dispatch_nested(p, Sys::kRead, {ufd, kpage, want},
                             BufMode::kKernel);
    }
    if (rd <= 0) {
      err = rd;  // 0 = EOF
      break;
    }
    const SysRet sn =
        k.dispatch_nested(p, Sys::kSend,
                          {Kernel::iarg(sockfd), kpage, Kernel::iarg(rd)},
                          BufMode::kKernel);
    if (sn < 0) {
      err = sn;
      break;
    }
    total += static_cast<std::size_t>(sn);
    pos += static_cast<std::uint64_t>(sn);
    if (sn < rd) break;  // nonblocking short send
  }
  k.dispatch_nested(p, Sys::kClose, {ufd});
  if (total == 0 && err < 0) return scope.done(err);
  net.note_sendfile(total);
  return scope.done(static_cast<SysRet>(total));
}

}  // namespace usk::consolidation
