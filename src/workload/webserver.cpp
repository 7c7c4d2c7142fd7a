#include "workload/webserver.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "consolidation/newcalls.hpp"
#include "cosy/exec.hpp"
#include "ring/ring.hpp"
#include "sup/fallback.hpp"
#include "sup/supervisor.hpp"
#include "trace/span.hpp"

namespace usk::workload {

const char* serve_mode_name(ServeMode m) {
  switch (m) {
    case ServeMode::kPlain: return "plain";
    case ServeMode::kConsolidated: return "consolidated";
    case ServeMode::kCosy: return "cosy";
    case ServeMode::kRing: return "ring";
  }
  return "?";
}

namespace {

using uk::Kernel;
using uk::Sys;

/// Server-side read/send chunk: a classic 4 KiB stack buffer, so files
/// larger than one page take several read+send rounds in plain mode.
constexpr std::size_t kChunk = 4096;

std::string www_path(const WebServerConfig& cfg, std::size_t i) {
  return "/www/f" + std::to_string(i % cfg.files);
}

/// "GET <path>" (null-padded to kRequestBytes) -> <path>.
std::string parse_path(const char* req) {
  std::string s(req, strnlen(req, kRequestBytes));
  std::size_t sp = s.find(' ');
  if (sp == std::string::npos || sp + 1 >= s.size()) return {};
  return s.substr(sp + 1);
}

/// Classic per-request serving: stat (size / If-Modified-Since check the
/// way Apache does it), open, read+send chunk loop, close. Every file
/// byte crosses the boundary twice (read copy-out, send copy-in).
void serve_plain(uk::Proc& srv, net::Net& net, int connfd,
                 const std::string& path) {
  uk::Process& p = srv.process();
  fs::StatBuf st{};
  if (srv.stat(path.c_str(), &st) != 0) return;
  int fd = srv.open(path.c_str(), fs::kORdOnly);
  if (fd < 0) return;
  std::byte buf[kChunk];
  std::uint64_t left = st.size;
  while (left > 0) {
    std::size_t want = left < kChunk ? static_cast<std::size_t>(left) : kChunk;
    SysRet n = srv.read(fd, buf, want);
    if (n <= 0) break;
    SysRet sent = net.sys_send(p, connfd, buf, static_cast<std::size_t>(n));
    if (sent <= 0) break;
    left -= static_cast<std::uint64_t>(n);
  }
  srv.close(fd);
}

/// One compound serves the whole keep-alive connection: the response to
/// the already-received first request, then (recv request, open, read,
/// close, send response) for each remaining request -- all in a single
/// boundary crossing, all payload through the shared buffer.
cosy::CosyResult serve_cosy(uk::Proc& srv, cosy::CosyExtension& ext,
                            const WebServerConfig& cfg, int connfd,
                            const std::string& path) {
  cosy::CompoundBuilder b;
  cosy::Arg pa = b.str(path);
  const auto fb = static_cast<std::int64_t>(cfg.file_bytes);
  const auto off = static_cast<std::int64_t>(kRequestBytes);
  for (std::size_t r = 0; r < cfg.requests_per_conn; ++r) {
    if (r > 0) {
      b.read(cosy::imm(connfd), cosy::shared(0),
             cosy::imm(static_cast<std::int64_t>(kRequestBytes)));
    }
    int o = b.open(pa, cosy::imm(fs::kORdOnly), cosy::imm(0));
    b.read(cosy::result_of(o), cosy::shared(off), cosy::imm(fb));
    b.close(cosy::result_of(o));
    b.write(cosy::imm(connfd), cosy::shared(off), cosy::imm(fb));
  }
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(kRequestBytes + cfg.file_bytes);
  return ext.execute(srv.process(), c, shared);
}

/// Classic user-space serving of a whole keep-alive connection: the
/// degraded form of serve_cosy (same observable effects, one syscall per
/// step). `path` is the already-received first request; the rest are
/// recv'd until the client closes.
void serve_classic_conn(uk::Proc& srv, net::Net& net,
                        const WebServerConfig& cfg, int connfd,
                        const std::string& path) {
  (void)cfg;
  uk::Process& p = srv.process();
  serve_plain(srv, net, connfd, path);
  char req[kRequestBytes];
  for (;;) {
    std::memset(req, 0, sizeof req);
    SysRet r = net.sys_recv(p, connfd, req, kRequestBytes);
    if (r <= 0) break;  // client closed after its last response
    serve_plain(srv, net, connfd, parse_path(req));
  }
}

struct ServerSample {
  std::uint64_t syscalls = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t kernel_units = 0;
  std::uint64_t conns = 0;
};

// --- kRing serving -----------------------------------------------------------
// The worker needs no epoll at all: the accept SQE parks inside the
// drain until a connection arrives, so the whole worker is a loop of
// ring_enter calls. Arena layout (per window of B = ring_batch chains):
//   [0, B*file_bytes)                       response slots (read -> send)
//   [B*file_bytes, +B*kRequestBytes)        request slots (recv)
//   [.., +kRequestBytes)                    the served path (open)

/// CQE tag: response-chain slot * 16 + op index; prologue ops offset
/// past any slot tag.
constexpr std::uint64_t slot_ud(std::size_t slot, std::size_t op) {
  return slot * 16 + op;
}
constexpr std::uint64_t kUdAccept = 0xA000;
constexpr std::uint64_t kUdFirstRecv = 0xA001;
constexpr std::uint64_t kUdPrevClose = 0xA002;

struct RingConn {
  uk::Proc& srv;
  net::Net& net;
  ring::RingDev& rdev;
  std::shared_ptr<ring::Ring> rg;
  int ringfd;
  int lfd;
};

/// Queue one SQE, draining the ring if the SQ is unexpectedly full (the
/// ring is sized for a full window, so this is a backstop, not a path).
void ring_push(RingConn& rc, const ring::Sqe& s) {
  while (!rc.rg->user_prepare(s)) {
    rc.rdev.sys_ring_enter(rc.srv.process(), rc.ringfd,
                           ring::RingDev::kDrainAll, 0, 0);
  }
}

/// Drain everything queued (all CQEs are posted synchronously: the
/// blocking ops inside the drain park on socket readiness, so nothing
/// is left pending when the enter returns) and reap into `out`.
void ring_round(RingConn& rc, std::vector<ring::Cqe>& out) {
  rc.rdev.sys_ring_enter(rc.srv.process(), rc.ringfd,
                         ring::RingDev::kDrainAll, 0, 0);
  ring::Cqe buf[64];
  std::size_t n;
  while ((n = rc.rg->user_reap(buf, 64)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
}

SysRet cqe_res(const std::vector<ring::Cqe>& cqes, std::uint64_t ud,
               SysRet missing) {
  for (const ring::Cqe& c : cqes) {
    if (c.user_data == ud) return c.res;
  }
  return missing;  // dropped completion: treat as the caller directs
}

/// Serve one keep-alive connection through the ring. `prev_conn` (>= 0)
/// is the previous connection's fd, closed as a free rider SQE on this
/// connection's prologue enter. Returns the conn fd (left open; it
/// becomes the next call's prev_conn) or -1 if no connection arrived.
int serve_ring_conn(RingConn& rc, const WebServerConfig& cfg,
                    int prev_conn) {
  // Request ingress for the ring vehicle: the whole keep-alive
  // connection is one root span; each drained chain opens a child span
  // inside Ring::exec_chain, and the classic rescues attribute here.
  trace::SpanScope span("ws.conn", trace::SpanVehicle::kRing);
  uk::Process& p = rc.srv.process();
  const std::size_t B = std::max<std::size_t>(1, cfg.ring_batch);
  const std::size_t fb = cfg.file_bytes;
  const std::uint64_t req_base = B * fb;
  const std::uint64_t path_off = req_base + B * kRequestBytes;
  const std::size_t R = cfg.requests_per_conn;
  std::vector<ring::Cqe> cqes;

  // Prologue: [close prev conn] + accept -> first recv, one crossing.
  if (prev_conn >= 0) {
    ring_push(rc, ring::Sqe{.user_data = kUdPrevClose,
                            .nr = Sys::kClose,
                            .args = {Kernel::iarg(prev_conn)}});
  }
  ring_push(rc, ring::Sqe{.user_data = kUdAccept,
                          .nr = Sys::kAccept,
                          .flags = ring::kSqeLink,
                          .args = {Kernel::iarg(rc.lfd)}});
  ring_push(rc, ring::Sqe{.user_data = kUdFirstRecv,
                          .nr = Sys::kRecv,
                          .args = {ring::kFdChain, req_base, kRequestBytes}});
  ring_round(rc, cqes);

  // Classic rescues (only under faults). A hard-failed accept left the
  // connection queued, so sys_accept picks it right up; a failed recv
  // left the request bytes queued on the new socket.
  if (prev_conn >= 0 && cqe_res(cqes, kUdPrevClose, 0) < 0) {
    rc.srv.close(prev_conn);
  }
  int connfd = static_cast<int>(cqe_res(cqes, kUdAccept, -1));
  if (connfd < 0) connfd = static_cast<int>(rc.net.sys_accept(p, rc.lfd));
  if (connfd < 0) {
    span.set_name("ws.idle");  // no connection arrived: not a request
    return -1;
  }
  char req[kRequestBytes] = {};
  std::string path;
  if (cqe_res(cqes, kUdFirstRecv, -1) > 0) {
    std::memcpy(req, rc.rg->user_data(req_base, kRequestBytes),
                kRequestBytes);
  } else if (rc.net.sys_recv(p, connfd, req, kRequestBytes) <= 0) {
    rc.srv.close(connfd);
    span.set_name("ws.idle");
    return -1;
  }
  path = parse_path(req);
  const std::uint64_t conn = Kernel::iarg(connfd);
  std::byte* ppath = rc.rg->user_data(path_off, path.size() + 1);
  if (ppath == nullptr) {
    rc.srv.close(connfd);
    span.set_name("ws.idle");
    return -1;  // arena too small for the path (misconfiguration)
  }
  std::memcpy(ppath, path.c_str(), path.size() + 1);

  // Request windows: B linked chains per enter. Request 0's response
  // chain has no recv (the prologue consumed its request); every later
  // chain starts by recv'ing the next pipelined request.
  std::size_t next = 0;
  while (next < R) {
    const std::size_t w = std::min(B, R - next);
    std::vector<bool> has_recv(w);
    for (std::size_t i = 0; i < w; ++i, ++next) {
      has_recv[i] = next > 0;
      if (has_recv[i]) {
        ring_push(rc, ring::Sqe{.user_data = slot_ud(i, 0),
                                .nr = Sys::kRecv,
                                .flags = ring::kSqeLink,
                                .args = {conn, req_base + i * kRequestBytes,
                                         kRequestBytes}});
      }
      ring_push(rc, ring::Sqe{.user_data = slot_ud(i, 1),
                              .nr = Sys::kOpen,
                              .flags = ring::kSqeLink,
                              .args = {path_off, fs::kORdOnly}});
      ring_push(rc, ring::Sqe{.user_data = slot_ud(i, 2),
                              .nr = Sys::kRead,
                              .flags = ring::kSqeLink,
                              .args = {ring::kFdChain, i * fb, fb}});
      ring_push(rc, ring::Sqe{.user_data = slot_ud(i, 3),
                              .nr = Sys::kSend,
                              .flags = ring::kSqeLink,
                              .args = {conn, i * fb, fb}});
      ring_push(rc, ring::Sqe{.user_data = slot_ud(i, 4),
                              .nr = Sys::kClose,
                              .args = {ring::kFdChain}});
    }
    cqes.clear();
    ring_round(rc, cqes);
    // Rescue pass: any chain whose send did not deliver the full
    // response is re-served classically (responses are identical, so
    // delivery order does not matter to the byte-counting client). If
    // the chain died before its recv consumed the request, consume it
    // first so the stream stays aligned.
    for (std::size_t i = 0; i < w; ++i) {
      if (cqe_res(cqes, slot_ud(i, 3), -1) ==
          static_cast<SysRet>(fb)) {
        continue;
      }
      if (has_recv[i] && cqe_res(cqes, slot_ud(i, 0), -1) <= 0) {
        char tmp[kRequestBytes];
        (void)rc.net.sys_recv(p, connfd, tmp, kRequestBytes);
      }
      serve_plain(rc.srv, rc.net, connfd, path);
    }
  }
  return connfd;
}

void ring_server_worker(uk::Kernel& k, net::Net& net,
                        const WebServerConfig& cfg, std::size_t w,
                        std::atomic<bool>& ready, ServerSample& out) {
  uk::Proc srv(k, "websrv" + std::to_string(w));
  uk::Process& p = srv.process();
  const auto port = static_cast<std::uint16_t>(cfg.base_port + w);
  const std::size_t B = std::max<std::size_t>(1, cfg.ring_batch);

  int lfd = static_cast<int>(net.sys_socket(p));
  net.sys_bind(p, lfd, port);
  net.sys_listen(p, lfd, 32);

  // SQ sized for a full window (5 SQEs per chain) plus the prologue.
  const auto entries = static_cast<std::uint32_t>(B * 5 + 8);
  const auto arena = static_cast<std::uint32_t>(
      B * (cfg.file_bytes + kRequestBytes) + kRequestBytes);
  RingConn rc{srv, net, *cfg.ring, nullptr,
              static_cast<int>(cfg.ring->sys_ring_setup(p, entries, arena)),
              lfd};
  if (rc.ringfd < 0) {
    ready.store(true, std::memory_order_release);
    srv.close(lfd);
    return;
  }
  rc.rg = cfg.ring->user_map(p, rc.ringfd).value();
  if (cfg.supervisor != nullptr) {
    sup::ExtId id = cfg.supervisor->register_extension(
        "websrv" + std::to_string(w) + ".ring", sup::Vehicle::kRing);
    cfg.ring->supervise(p, rc.ringfd, *cfg.supervisor, id);
  }
  ready.store(true, std::memory_order_release);

  std::size_t conns_done = 0;
  int prev_conn = -1;
  for (std::size_t c = 0; c < cfg.conns_per_worker; ++c) {
    int connfd = serve_ring_conn(rc, cfg, prev_conn);
    if (connfd < 0) break;
    prev_conn = connfd;
    ++conns_done;
  }
  if (prev_conn >= 0) srv.close(prev_conn);
  srv.close(rc.ringfd);
  srv.close(lfd);

  out.syscalls = srv.task().syscalls;
  out.user_bytes = srv.task().bytes_from_user + srv.task().bytes_to_user;
  out.kernel_units = srv.task().times().kernel;
  out.conns = conns_done;
}

void server_worker(uk::Kernel& k, net::Net& net, const WebServerConfig& cfg,
                   std::size_t w, std::atomic<bool>& ready,
                   ServerSample& out) {
  if (cfg.mode == ServeMode::kRing) {
    ring_server_worker(k, net, cfg, w, ready, out);
    return;
  }
  uk::Proc srv(k, "websrv" + std::to_string(w));
  uk::Process& p = srv.process();
  cosy::CosyExtension ext(k);
  const auto port = static_cast<std::uint16_t>(cfg.base_port + w);

  // Supervised serving: this worker's in-kernel path is one registered
  // extension; quarantine degrades it to the classic per-request loop.
  sup::Supervisor* sup = cfg.supervisor;
  sup::ExtId ext_id = -1;
  if (sup != nullptr && cfg.mode == ServeMode::kCosy) {
    ext_id = sup->register_extension("websrv" + std::to_string(w) + ".cosy",
                                     sup::Vehicle::kCosy);
    ext.supervise(sup, ext_id);
  } else if (sup != nullptr && cfg.mode == ServeMode::kConsolidated) {
    ext_id = sup->register_extension(
        "websrv" + std::to_string(w) + ".consolidated",
        sup::Vehicle::kConsolidated);
  } else {
    sup = nullptr;  // kPlain: nothing runs in the kernel
  }

  int lfd = static_cast<int>(net.sys_socket(p));
  net.sys_bind(p, lfd, port);
  net.sys_listen(p, lfd, 32);
  int ep = static_cast<int>(net.sys_epoll_create(p));
  net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, lfd, net::kEpollIn);
  ready.store(true, std::memory_order_release);

  std::size_t conns_done = 0;
  std::vector<net::EpollEvent> evs(16);
  char req[kRequestBytes];
  while (conns_done < cfg.conns_per_worker) {
    SysRet n = net.sys_epoll_wait(p, ep, evs.data(),
                                  static_cast<int>(evs.size()), 50);
    if (n < 0) break;  // killed by the watchdog
    for (SysRet i = 0; i < n; ++i) {
      const net::EpollEvent& ev = evs[static_cast<std::size_t>(i)];
      if (ev.fd == lfd) {
        switch (cfg.mode) {
          case ServeMode::kRing:
            break;  // served by ring_server_worker, never reaches here
          case ServeMode::kPlain: {
            trace::SpanScope span("ws.accept", trace::SpanVehicle::kPlain);
            int connfd = static_cast<int>(net.sys_accept(p, lfd));
            if (connfd >= 0) {
              net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, connfd,
                                net::kEpollIn);
            }
            break;
          }
          case ServeMode::kConsolidated: {
            // Ingress span: the consolidated accept branch serves the
            // connection's first request itself, so the span is promoted
            // to ws.request once a response goes out.
            trace::SpanScope span("ws.accept",
                                  trace::SpanVehicle::kConsolidated, ext_id);
            int connfd = -1;
            std::memset(req, 0, sizeof req);
            SysRet r =
                sup != nullptr
                    ? sup::supervised_accept_recv(*sup, ext_id, net, k, p,
                                                  lfd, req, kRequestBytes,
                                                  &connfd)
                    : consolidation::sys_accept_recv(k, p, lfd, req,
                                                     kRequestBytes, &connfd);
            if (connfd < 0) break;
            if (r > 0) {
              span.set_name("ws.request");
              if (sup != nullptr) {
                sup::supervised_sendfile(*sup, ext_id, net, k, p, connfd,
                                         parse_path(req).c_str(), 0,
                                         cfg.file_bytes);
              } else {
                consolidation::sys_sendfile(k, p, connfd,
                                            parse_path(req).c_str(), 0,
                                            cfg.file_bytes);
              }
            }
            net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, connfd,
                              net::kEpollIn);
            break;
          }
          case ServeMode::kCosy: {
            int connfd = static_cast<int>(net.sys_accept(p, lfd));
            if (connfd < 0) break;
            // Request ingress: one root span per keep-alive connection
            // (the compound serves all its requests). The quarantine
            // fallback and the classic rescue open CHILD spans below, so
            // a degraded connection still reads as one tree.
            trace::SpanScope span("ws.conn", trace::SpanVehicle::kCosy,
                                  ext_id);
            std::memset(req, 0, sizeof req);
            if (net.sys_recv(p, connfd, req, kRequestBytes) > 0) {
              const std::string path = parse_path(req);
              if (sup == nullptr) {
                serve_cosy(srv, ext, cfg, connfd, path);
              } else {
                const sup::Route route = sup->route(ext_id);
                if (route == sup::Route::kFallback) {
                  // Quarantined: the whole connection is served by the
                  // classic user-space loop, accounted as a fallback run.
                  // The decomposed syscalls land in this child span, so
                  // they stay inside the original request's tree.
                  trace::SpanScope fb("sup.fallback",
                                      trace::SpanVehicle::kFallback, ext_id);
                  SysRet fres = 0;
                  sup::InvocationGuard g(*sup, ext_id, &srv.task(), route,
                                         &fres);
                  serve_classic_conn(srv, net, cfg, connfd, path);
                } else {
                  if (route == sup::Route::kProbe) ext.re_isolate_all();
                  SysRet cret = 0;
                  std::size_t ops_run = 0;
                  {
                    sup::InvocationGuard g(*sup, ext_id, &srv.task(), route,
                                           &cret);
                    cosy::CosyResult r2 =
                        serve_cosy(srv, ext, cfg, connfd, path);
                    cret = r2.ret;
                    ops_run = r2.ops_run;
                  }
                  if (cret != 0 && ops_run == 0) {
                    // Aborted before op 0 (fuel voided at entry, rejected
                    // compound): no side effects yet, so the classic loop
                    // can serve the connection in full.
                    trace::SpanScope rescue("sup.fallback",
                                            trace::SpanVehicle::kFallback,
                                            ext_id);
                    serve_classic_conn(srv, net, cfg, connfd, path);
                  }
                }
              }
            }
            srv.close(connfd);
            ++conns_done;
            break;
          }
        }
      } else {
        int connfd = ev.fd;
        // Data-event ingress span, promoted to ws.request once a
        // nonempty request is actually served.
        trace::SpanScope span("ws.data",
                              cfg.mode == ServeMode::kConsolidated
                                  ? trace::SpanVehicle::kConsolidated
                                  : trace::SpanVehicle::kPlain,
                              ext_id);
        std::memset(req, 0, sizeof req);
        SysRet r = net.sys_recv(p, connfd, req, kRequestBytes);
        if (r <= 0) {  // client closed (or error): retire the connection
          net.sys_epoll_ctl(p, ep, net::kEpollCtlDel, connfd, 0);
          srv.close(connfd);
          ++conns_done;
        } else if (cfg.mode == ServeMode::kConsolidated) {
          span.set_name("ws.request");
          if (sup != nullptr) {
            sup::supervised_sendfile(*sup, ext_id, net, k, p, connfd,
                                     parse_path(req).c_str(), 0,
                                     cfg.file_bytes);
          } else {
            consolidation::sys_sendfile(k, p, connfd,
                                        parse_path(req).c_str(), 0,
                                        cfg.file_bytes);
          }
        } else {
          span.set_name("ws.request");
          serve_plain(srv, net, connfd, parse_path(req));
        }
      }
    }
  }
  srv.close(ep);
  srv.close(lfd);

  out.syscalls = srv.task().syscalls;
  out.user_bytes = srv.task().bytes_from_user + srv.task().bytes_to_user;
  out.kernel_units = srv.task().times().kernel;
  out.conns = conns_done;
}

void client_worker(uk::Kernel& k, net::Net& net, const WebServerConfig& cfg,
                   std::size_t w, std::atomic<bool>& srv_ready,
                   std::atomic<std::uint64_t>& requests_ok) {
  uk::Proc cli(k, "webcli" + std::to_string(w));
  uk::Process& p = cli.process();
  const auto port = static_cast<std::uint16_t>(cfg.base_port + w);
  while (!srv_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::vector<std::byte> buf(kChunk);
  for (std::size_t c = 0; c < cfg.conns_per_worker; ++c) {
    int fd = static_cast<int>(net.sys_socket(p));
    if (fd < 0) break;
    if (net.sys_connect(p, fd, port) != 0) {
      cli.close(fd);
      break;
    }
    std::string path = www_path(cfg, w * 31 + c);
    char req[kRequestBytes] = {};
    std::snprintf(req, sizeof req, "GET %s", path.c_str());
    // Pipelined request loop: keep `depth` requests outstanding. Depth 1
    // is the classic lock-step exchange; the ring server raises it so a
    // window of chains has requests to drain in one crossing.
    std::size_t depth = std::max<std::size_t>(1, cfg.pipeline_depth);
    if (cfg.mode == ServeMode::kRing) {
      depth = std::max(depth, std::max<std::size_t>(1, cfg.ring_batch));
    }
    depth = std::min(depth, cfg.requests_per_conn);
    std::size_t sent = 0;
    bool alive = true;
    for (; sent < depth && alive; ++sent) {
      alive = net.sys_send(p, fd, req, kRequestBytes) ==
              static_cast<SysRet>(kRequestBytes);
    }
    for (std::size_t r = 0; r < cfg.requests_per_conn && alive; ++r) {
      std::size_t got = 0;
      while (got < cfg.file_bytes) {
        SysRet n = net.sys_recv(p, fd, buf.data(), buf.size());
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      if (got != cfg.file_bytes) break;
      requests_ok.fetch_add(1, std::memory_order_relaxed);
      if (sent < cfg.requests_per_conn) {
        alive = net.sys_send(p, fd, req, kRequestBytes) ==
                static_cast<SysRet>(kRequestBytes);
        ++sent;
      }
    }
    cli.close(fd);
  }
}

}  // namespace

void populate_www(uk::Proc& p, const WebServerConfig& cfg) {
  p.mkdir("/www");
  std::vector<std::byte> block(cfg.file_bytes, std::byte{0x42});
  for (std::size_t i = 0; i < cfg.files; ++i) {
    std::string path = www_path(cfg, i);
    int fd = p.open(path.c_str(), fs::kOWrOnly | fs::kOCreat);
    if (fd < 0) continue;
    std::size_t written = 0;
    while (written < cfg.file_bytes) {
      SysRet n = p.write(fd, block.data() + written, cfg.file_bytes - written);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    p.close(fd);
  }
}

WebServerReport run_webserver(uk::Kernel& k, net::Net& net,
                              const WebServerConfig& cfg) {
  WebServerReport rep;
  std::vector<ServerSample> samples(cfg.workers);
  std::vector<std::unique_ptr<std::atomic<bool>>> ready;
  ready.reserve(cfg.workers);
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    ready.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  std::atomic<std::uint64_t> requests_ok{0};

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.workers * 2);
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    threads.emplace_back(server_worker, std::ref(k), std::ref(net),
                         std::cref(cfg), w, std::ref(*ready[w]),
                         std::ref(samples[w]));
    threads.emplace_back(client_worker, std::ref(k), std::ref(net),
                         std::cref(cfg), w, std::ref(*ready[w]),
                         std::ref(requests_ok));
  }
  for (std::thread& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();

  rep.requests = requests_ok.load();
  rep.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  rep.req_per_sec =
      rep.elapsed_s > 0 ? static_cast<double>(rep.requests) / rep.elapsed_s
                        : 0.0;
  for (const ServerSample& s : samples) {
    rep.server_crossings += s.syscalls;
    rep.server_user_bytes += s.user_bytes;
    rep.server_kernel_units += s.kernel_units;
    rep.conns += s.conns;
  }
  return rep;
}

}  // namespace usk::workload
