// Open-loop overload generator for kdl (EXPERIMENTS R3).
//
// The webserver workload is closed-loop: every client waits for its
// response before sending again, so offered load can never exceed
// service capacity and overload is unobservable. This workload is
// open-loop: request arrivals follow a fixed schedule derived from an
// offered rate, whether or not earlier requests have finished -- the
// schedule a front-end fleet imposes on a backend. At 2x capacity a
// server without admission control builds an unbounded queue (every
// request is eventually served, far past its deadline, at full cost);
// with kdl it sheds infeasible requests at ingress and spends kernel
// units only on requests it can still serve in time.
//
// Request wire format (kRequestBytes, null-padded):
//     "REQ <path> <abs_deadline_ns> <tenant>"
// Response: OverloadHdr, then `payload` bytes when status == kOk.
// <abs_deadline_ns> is the ABSOLUTE deadline (steady-clock ns): the
// scheduled arrival plus the end-to-end budget. The server computes the
// residual at recv time, so schedule slip, retry backoff, transit AND
// the server's own ingress queue all tick against the budget -- the
// gRPC convention for deadline propagation, and the only encoding that
// stays truthful under overload (a residual-at-send-time would freeze
// while the request sat in the accept backlog, which is exactly where
// overloaded requests spend their budget).
//
// The server is the plain epoll/recv/open/read/send loop with kdl
// attached at ingress: a dl::DeadlineScope per request (budget parsed
// from the wire), dl::Admission consulted before serving, and the
// serving chunk loop unwinding through ETIMEDOUT/ECANCELED like any
// other error. Clients run an executor pool over the arrival schedule
// with one-shot connections, per-tenant RetryBudgets on shed/expired
// responses, and the ksup hook on budget exhaustion.
#pragma once

#include <cstdint>
#include <string>

#include "dl/dl.hpp"
#include "net/net.hpp"
#include "uk/userlib.hpp"

namespace usk::sup {
class Supervisor;
}

namespace usk::workload {

/// Reuses the webserver's 64-byte fixed request frame size.
inline constexpr std::size_t kOverloadRequestBytes = 64;

/// Response header preceding the (optional) payload.
struct OverloadHdr {
  static constexpr std::uint32_t kMagic = 0x4F4C4431;  // "OLD1"
  enum Status : std::uint32_t { kOk = 0, kShed = 1, kError = 2 };
  std::uint32_t magic = kMagic;
  std::uint32_t status = kOk;
  std::uint64_t payload = 0;  ///< bytes following this header
};

struct OverloadConfig {
  std::size_t workers = 2;        ///< server epoll loops (one port each)
  std::size_t client_threads = 8; ///< arrival executors (the open loop)
  std::size_t tenants = 4;        ///< retry-budget domains
  std::size_t requests = 2000;    ///< scheduled arrivals (excl. retries)
  double offered_rps = 4000.0;    ///< total arrival rate
  std::size_t file_bytes = 4096;  ///< served document size
  std::size_t files = 4;
  std::uint64_t deadline_ms = 50; ///< per-request end-to-end budget
  std::uint16_t base_port = 9100;
  std::uint64_t seed = 42;        ///< jitter / canceller determinism

  bool deadlines = true;  ///< attach DeadlineScope at server ingress
  bool shedding = true;   ///< consult Admission before serving
  dl::AdmissionConfig admission{};
  dl::RetryBudgetConfig retry{};

  /// > 0: a canceller thread issues Scheduler::cancel against a server
  /// worker task every `cancel_period_us` (seeded task choice) -- the
  /// cancellation storm behind the leak oracle.
  std::uint64_t cancel_period_us = 0;

  /// Optional: tenants register as extensions; an exhausted retry
  /// budget records a kRetryBudget violation so the breaker trips.
  sup::Supervisor* supervisor = nullptr;
};

struct OverloadReport {
  // Client-observed outcomes. offered counts scheduled arrivals;
  // attempts counts wire exchanges (offered + retries).
  std::uint64_t offered = 0;
  std::uint64_t attempts = 0;
  std::uint64_t ok_in_deadline = 0;  ///< goodput
  std::uint64_t ok_late = 0;         ///< served, but past the deadline
  std::uint64_t shed = 0;            ///< kShed responses
  std::uint64_t failed = 0;          ///< conn error / aborted mid-response
  std::uint64_t retries = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t dropped = 0;  ///< requests abandoned after exhaustion

  // End-to-end latency of served (kOk) requests, measured from the
  // *scheduled* arrival (open-loop convention: queueing behind a late
  // executor and retry backoffs count). Exact percentiles.
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;

  // Latency of the successful attempt alone (connect -> payload
  // drained): what an *admitted* request experienced inside the server,
  // excluding schedule slip and earlier rejected attempts. The R3 p99
  // ceiling (<= 5x the uncontended p99) is on this.
  std::uint64_t admitted_p50_ns = 0;
  std::uint64_t admitted_p99_ns = 0;

  // Server side.
  std::uint64_t admitted = 0;
  std::uint64_t server_sheds = 0;
  std::uint64_t serve_aborts = 0;  ///< ETIMEDOUT/ECANCELED mid-serve
  std::uint64_t cancels_issued = 0;

  // Leak oracle, sampled after all workers/clients exited: open fds
  // still in any worker's table (listener/epoll excluded -- they are
  // closed by then), live sockets in the net table, and the kmalloc
  // outstanding-byte delta across the run (after warmup, the serve path
  // allocates nothing durable).
  std::uint64_t leaked_fds = 0;
  std::uint64_t leaked_sockets = 0;
  std::int64_t kmalloc_delta = 0;

  double elapsed_s = 0.0;
  double throughput_rps = 0.0;  ///< ok responses (in-deadline or late)

  [[nodiscard]] double goodput_pct() const {
    return offered != 0 ? 100.0 * static_cast<double>(ok_in_deadline) /
                              static_cast<double>(offered)
                        : 0.0;
  }
};

/// Create the served documents (any Proc on the kernel).
void populate_overload_www(uk::Proc& p, const OverloadConfig& cfg);

/// Run one open-loop episode against `k` + `net`. populate_overload_www
/// must have been called. The caller owns kdl arming (`k.dl()
/// .set_enabled`) -- a disabled kdl turns cfg.deadlines / cfg.shedding
/// into no-ops, which is the unprotected baseline.
OverloadReport run_overload(uk::Kernel& k, net::Net& net,
                            const OverloadConfig& cfg);

/// Closed-loop calibration: lock-step requests at low concurrency.
/// Returns served requests/sec in `*rps` and the uncontended p99 (ns)
/// in `*p99_ns`.
void calibrate_overload(uk::Kernel& k, net::Net& net,
                        const OverloadConfig& cfg, double* rps,
                        std::uint64_t* p99_ns);

}  // namespace usk::workload
