#include "sup/fallback.hpp"

#include <algorithm>
#include <cstdint>

#include "consolidation/newcalls.hpp"
#include "fs/types.hpp"

namespace usk::sup {

SysRet classic_accept_recv(net::Net& net, uk::Process& p, int listenfd,
                           void* ubuf, std::size_t n, int* uconnfd) {
  const SysRet afd = net.sys_accept(p, listenfd);
  if (sysret_is_err(afd)) return afd;
  *uconnfd = static_cast<int>(afd);
  return net.sys_recv(p, static_cast<int>(afd), ubuf, n);
}

SysRet classic_sendfile(net::Net& net, uk::Kernel& k, uk::Process& p,
                        int sockfd, const char* upath, std::uint64_t offset,
                        std::size_t count) {
  const SysRet fd = k.sys_open(p, upath, fs::kORdOnly, 0);
  if (sysret_is_err(fd)) return fd;
  const int f = static_cast<int>(fd);
  if (offset != 0) {
    const SysRet sk =
        k.sys_lseek(p, f, static_cast<std::int64_t>(offset), fs::kSeekSet);
    if (sysret_is_err(sk)) {
      (void)k.sys_close(p, f);
      return sk;
    }
  }
  char buf[4096];  // user-space bounce buffer
  std::uint64_t total = 0;
  SysRet err = 0;
  while (total < count) {
    const std::size_t want =
        std::min<std::size_t>(sizeof(buf), count - total);
    const SysRet r = k.sys_read(p, f, buf, want);
    if (sysret_is_err(r)) {
      err = r;
      break;
    }
    if (r == 0) break;  // EOF
    std::size_t sent = 0;
    while (sent < static_cast<std::size_t>(r)) {
      const SysRet w = net.sys_send(p, sockfd, buf + sent,
                                    static_cast<std::size_t>(r) - sent);
      if (sysret_is_err(w)) {
        err = w;
        break;
      }
      sent += static_cast<std::size_t>(w);
    }
    total += sent;
    if (sysret_is_err(err)) break;
  }
  (void)k.sys_close(p, f);
  if (total == 0 && sysret_is_err(err)) return err;
  return static_cast<SysRet>(total);
}

SysRet supervised_accept_recv(Supervisor& s, ExtId id, net::Net& net,
                              uk::Kernel& k, uk::Process& p, int listenfd,
                              void* ubuf, std::size_t n, int* uconnfd) {
  return s.invoke(
      id, &p.task,
      [&](InvocationGuard& g, Route) -> Supervisor::Attempt {
        // The kernel path stages the request into an n-byte kernel
        // buffer; charge it against the kmalloc quota before any side
        // effect.
        const SysRet ret =
            g.charge_kmalloc(n)
                ? consolidation::sys_accept_recv(k, p, listenfd, ubuf, n,
                                                 uconnfd)
                : sysret_err(InvocationGuard::quota_errno());
        // Failed before accepting anything: serve it classically. A
        // delivered connection is not retryable; EAGAIN is a benign
        // nonblocking miss.
        return {ret, *uconnfd < 0 && sysret_errno(ret) != Errno::kEAGAIN};
      },
      [&] { return classic_accept_recv(net, p, listenfd, ubuf, n, uconnfd); });
}

SysRet supervised_sendfile(Supervisor& s, ExtId id, net::Net& net,
                           uk::Kernel& k, uk::Process& p, int sockfd,
                           const char* upath, std::uint64_t offset,
                           std::size_t count) {
  return s.invoke(
      id, &p.task,
      [&](InvocationGuard& g, Route) -> Supervisor::Attempt {
        // Kernel-side staging page for the file->socket move.
        const SysRet ret =
            g.charge_kmalloc(4096)
                ? consolidation::sys_sendfile(k, p, sockfd, upath, offset,
                                              count)
                : sysret_err(InvocationGuard::quota_errno());
        // sys_sendfile fails only with zero bytes sent: decompose and
        // retry anything but EAGAIN.
        return {ret, sysret_errno(ret) != Errno::kEAGAIN};
      },
      [&] {
        return classic_sendfile(net, k, p, sockfd, upath, offset, count);
      });
}

}  // namespace usk::sup
