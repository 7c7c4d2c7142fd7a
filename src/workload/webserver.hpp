// Static-content web server over the loopback network (paper §2.2).
//
// The paper motivates consolidation with server traces: "long-running
// daemons (e.g., Sendmail and Apache)" whose inner loop is
// accept-recv-open-read-send-close. This workload runs that loop for
// real: N server workers (one per virtual CPU), each an epoll event loop
// on its own port, with N client tasks driving keep-alive or one-shot
// request mixes over net::Net's loopback transport.
//
// Four serving modes make the crossing-elimination story measurable:
//  - kPlain:        classic syscalls per request
//                   (recv, stat, open, read*, send*, close).
//  - kConsolidated: accept_recv for the connection prologue and sendfile
//                   for every response (file bytes never cross).
//  - kCosy:         one compound per connection serves every request
//                   in a single crossing (plus accept + first recv).
//  - kRing:         batched submission rings (src/ring): the worker
//                   queues linked SQE chains (accept->recv prologue,
//                   recv->open->read->send->close per request) and one
//                   ring_enter drains a window of ring_batch chains.
//
// R3's overload server (overload.hpp) is this epoll worker with a
// RequestHook; serve_file is the one classic serving loop for both.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/net.hpp"
#include "uk/userlib.hpp"

namespace usk::sup {
class Supervisor;
}
namespace usk::ring {
class RingDev;
}

namespace usk::workload {

enum class ServeMode {
  kPlain,
  kConsolidated,
  kCosy,
  kRing,
};

[[nodiscard]] const char* serve_mode_name(ServeMode m);

struct WebServerConfig {
  std::size_t workers = 4;           ///< server event loops == virtual CPUs
  std::size_t conns_per_worker = 8;  ///< connections each client opens
  std::size_t requests_per_conn = 8; ///< 1 = one-shot, >1 = keep-alive
  std::size_t file_bytes = 8192;     ///< served document size
  std::size_t files = 4;             ///< /www/f0../www/f{files-1}
  std::uint16_t base_port = 8000;    ///< worker w listens on base_port + w
  ServeMode mode = ServeMode::kPlain;
  /// Optional extension supervisor. When set, each worker registers its
  /// serving path ("websrvN.cosy" / "websrvN.consolidated") and every
  /// in-kernel invocation runs under the breaker: a quarantined worker
  /// degrades to classic per-request serving (the kPlain loop) and is
  /// re-admitted by backoff probes -- requests keep completing
  /// throughout. Ignored for kPlain (nothing runs in the kernel).
  sup::Supervisor* supervisor = nullptr;
  /// kRing only: the ring device (required) and the number of response
  /// chains submitted per ring_enter window.
  ring::RingDev* ring = nullptr;
  std::size_t ring_batch = 8;
};

/// Fixed-size request wire format ("GET /www/fN" null-padded).
inline constexpr std::size_t kRequestBytes = 64;

/// Create /www and the served documents. Call once per kernel instance
/// before run_webserver (any Proc will do; the files are shared).
void populate_www(uk::Proc& p, const WebServerConfig& cfg);

/// The served document for request `i`: /www/f{i % cfg.files}.
[[nodiscard]] std::string www_path(const WebServerConfig& cfg, std::size_t i);

/// R3's response header: it precedes the payload of a framed response.
struct OverloadHdr {
  static constexpr std::uint32_t kMagic = 0x4F4C4431;  // "OLD1"
  enum Status : std::uint32_t { kOk = 0, kShed = 1, kError = 2 };
  std::uint32_t magic = kMagic;
  std::uint32_t status = kOk;
  std::uint64_t payload = 0;  ///< bytes following this header
};

/// Classic per-request serving: stat (size / If-Modified-Since check the
/// way Apache does it), open, read+send in 4 KiB chunks. Every file byte
/// crosses the boundary twice (read copy-out, send copy-in). `framed`
/// sends an OverloadHdr (the size, or kError) first. Any negative SysRet
/// ends the loop, kdl's ETIMEDOUT/ECANCELED like every other errno.
/// Returns the opened file fd (negative if none) for the caller to
/// close: under an expired or cancelled DeadlineScope even close() fails
/// at the gateway, so R3 releases it after the scope retires.
int serve_file(uk::Proc& srv, net::Net& net, int connfd, const char* path,
               bool framed);

/// Run a cleanup syscall to completion through a cancellation storm:
/// ECANCELED means a cancel landed after the request it was meant for
/// unwound, so the worker absorbs it and retries. Without this a cancel
/// racing a close would orphan the fd. With no cancel it is one call.
SysRet cancel_immune(uk::Proc& srv, auto&& call) {
  for (;;) {
    const SysRet r = call();
    if (r != sysret_err(Errno::kECANCELED)) return r;
    srv.task().set_cancel_pending(false);
  }
}

/// A request handler that takes over an epoll worker's serving (R3's kdl
/// ingress). A hooked worker closes each connection after its one
/// request, serves until its run_servers load returns and then drains
/// its backlog. start/finish run on the worker's thread, once it listens
/// and once it has closed its listener.
class RequestHook {
 public:
  virtual ~RequestHook() = default;
  virtual void start(uk::Proc& srv) = 0;
  /// Answer `req`, received on `connfd` by worker `w`.
  virtual void handle(std::size_t w, uk::Proc& srv, int connfd,
                      const char* req) = 0;
  virtual void finish(uk::Proc& srv) = 0;
};

struct WebServerReport {
  std::uint64_t requests = 0;  ///< responses fully received by clients
  std::uint64_t conns = 0;     ///< connections completed
  double elapsed_s = 0.0;
  double req_per_sec = 0.0;
  // Server-side cost, summed over all worker Procs (clients excluded):
  std::uint64_t server_crossings = 0;   ///< boundary crossings (syscalls)
  std::uint64_t server_user_bytes = 0;  ///< user<->kernel copy bytes
  std::uint64_t server_kernel_units = 0;

  [[nodiscard]] double crossings_per_req() const {
    return requests ? static_cast<double>(server_crossings) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  [[nodiscard]] double user_bytes_per_req() const {
    return requests ? static_cast<double>(server_user_bytes) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

/// Run the full client/server benchmark: cfg.workers server threads and
/// as many client threads against `k` + `net`. populate_www must have
/// been called. Thread-safe with respect to other kernel users.
WebServerReport run_webserver(uk::Kernel& k, net::Net& net,
                              const WebServerConfig& cfg);

/// Run cfg.workers server workers, worker w on port cfg.base_port + w,
/// while `load` runs on the calling thread once all of them listen; then
/// join them. Unhooked, a worker exits after cfg.conns_per_worker
/// connections; with `hook` (kPlain mode) every worker hands its
/// requests to it. Fills the report's server-side fields.
WebServerReport run_servers(uk::Kernel& k, net::Net& net,
                            const WebServerConfig& cfg,
                            const std::function<void()>& load,
                            RequestHook* hook = nullptr);

}  // namespace usk::workload
