// Graceful degradation for consolidated server calls.
//
// The paper's consolidated calls (§2.2) buy one-crossing execution of a
// multi-syscall pattern -- but a consolidated call is in-kernel user
// logic, so it is exactly what the supervisor quarantines. These wrappers
// are the degradation seam: a healthy extension runs the one-crossing
// kernel path under an InvocationGuard; a quarantined one decomposes the
// pattern back into its classic component syscalls (accept+recv; open/
// read/send.../close), paying the crossings the consolidation saved but
// keeping the SERVICE up. Callers see the same contract either way.
//
// Kernel-path failures that provably happened before any side effect
// (quota overrun before the accept, an injected reset at the accept site)
// are retried on the classic path within the same call, so a supervised
// server completes 100% of requests under a fault storm.
#pragma once

#include "net/net.hpp"
#include "sup/supervisor.hpp"
#include "uk/kernel.hpp"

namespace usk::sup {

/// Classic user-space accept + recv: two crossings, plain syscalls. The
/// connection fd lands in *uconnfd by ordinary user-space assignment
/// (this code IS the user-space implementation; no boundary copy).
SysRet classic_accept_recv(net::Net& net, uk::Process& p, int listenfd,
                           void* ubuf, std::size_t n, int* uconnfd);

/// Classic user-space sendfile: open/lseek/read.../send.../close through
/// a user-space bounce buffer -- the exact pattern §2.2's consolidation
/// collapsed, reinstated as the degraded mode.
SysRet classic_sendfile(net::Net& net, uk::Kernel& k, uk::Process& p,
                        int sockfd, const char* upath, std::uint64_t offset,
                        std::size_t count);

/// Supervised consolidation::sys_accept_recv. The caller must initialize
/// *uconnfd to -1 (the webserver's idiom already): the wrapper reads it
/// back to distinguish "failed before accepting" (safe to retry
/// classically) from "connection delivered, recv failed" (surfaced
/// as-is). EAGAIN is passed through untouched.
SysRet supervised_accept_recv(Supervisor& s, ExtId id, net::Net& net,
                              uk::Kernel& k, uk::Process& p, int listenfd,
                              void* ubuf, std::size_t n, int* uconnfd);

/// Supervised consolidation::sys_sendfile. The kernel path only fails
/// with zero bytes sent, so every failure (except EAGAIN) is safe to
/// retry via the classic open/lseek/read/send/close decomposition.
SysRet supervised_sendfile(Supervisor& s, ExtId id, net::Net& net,
                           uk::Kernel& k, uk::Process& p, int sockfd,
                           const char* upath, std::uint64_t offset,
                           std::size_t count);

}  // namespace usk::sup
