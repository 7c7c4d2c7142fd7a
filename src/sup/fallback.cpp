#include "sup/fallback.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "consolidation/newcalls.hpp"
#include "fault/kfail.hpp"
#include "fs/types.hpp"
#include "trace/span.hpp"

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
  const Route r = s.route(id);
  if (r != Route::kFallback) {
    SysRet ret = 0;
    {
      // Re-admission probes get their own span so a trace shows the
      // probe attempt distinctly from routine kernel-path requests.
      std::optional<trace::SpanScope> probe_span;
      if (r == Route::kProbe) {
        probe_span.emplace("sup.probe", trace::SpanVehicle::kProbe, id);
      }
      InvocationGuard g(s, id, &p.task, r, &ret);
      // The kernel path stages the request into an n-byte kernel buffer;
      // charge it against the kmalloc quota before any side effect.
      if (!g.charge_kmalloc(n)) {
        ret = sysret_err(InvocationGuard::quota_errno());
      } else {
        ret = consolidation::sys_accept_recv(k, p, listenfd, ubuf, n,
                                             uconnfd);
      }
    }
    if (!sysret_is_err(ret)) return ret;
    const Errno e = sysret_errno(ret);
    if (e == Errno::kEAGAIN) return ret;  // benign nonblocking miss
    if (*uconnfd >= 0) return ret;  // conn delivered: not retryable
    // Failed before accepting anything: serve it classically.
  }
  // Decomposed classic path: a child span keeps the fallback syscalls
  // inside the original request's tree (same span discipline as the
  // kernel path, different vehicle tag).
  SysRet ret = 0;
  trace::SpanScope span("sup.fallback", trace::SpanVehicle::kFallback,
                        id);
  InvocationGuard g(s, id, &p.task, Route::kFallback, &ret);
  if (auto f = USK_FAIL_POINT(fault::Site::kSupFallback); f.fail) {
    ret = sysret_err(f.err);
    return ret;
  } else if (f.transient) {
    k.engine().alu(200);  // simulated user-space retry
  }
  ret = classic_accept_recv(net, p, listenfd, ubuf, n, uconnfd);
  return ret;
}

SysRet supervised_sendfile(Supervisor& s, ExtId id, net::Net& net,
                           uk::Kernel& k, uk::Process& p, int sockfd,
                           const char* upath, std::uint64_t offset,
                           std::size_t count) {
  const Route r = s.route(id);
  if (r != Route::kFallback) {
    SysRet ret = 0;
    {
      std::optional<trace::SpanScope> probe_span;
      if (r == Route::kProbe) {
        probe_span.emplace("sup.probe", trace::SpanVehicle::kProbe, id);
      }
      InvocationGuard g(s, id, &p.task, r, &ret);
      // Kernel-side staging page for the file->socket move.
      if (!g.charge_kmalloc(4096)) {
        ret = sysret_err(InvocationGuard::quota_errno());
      } else {
        ret = consolidation::sys_sendfile(k, p, sockfd, upath, offset,
                                          count);
      }
    }
    if (!sysret_is_err(ret)) return ret;
    if (sysret_errno(ret) == Errno::kEAGAIN) return ret;
    // sys_sendfile fails only with zero bytes sent: decompose and retry.
  }
  SysRet ret = 0;
  trace::SpanScope span("sup.fallback", trace::SpanVehicle::kFallback,
                        id);
  InvocationGuard g(s, id, &p.task, Route::kFallback, &ret);
  if (auto f = USK_FAIL_POINT(fault::Site::kSupFallback); f.fail) {
    ret = sysret_err(f.err);
    return ret;
  } else if (f.transient) {
    k.engine().alu(200);
  }
  ret = classic_sendfile(net, k, p, sockfd, upath, offset, count);
  return ret;
}

}  // namespace usk::sup
