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
#pragma once

#include <cstdint>
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

}  // namespace usk::workload
