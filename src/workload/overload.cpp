#include "workload/overload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "base/current.hpp"
#include "dl/dl.hpp"
#include "sched/scheduler.hpp"

namespace usk::workload {

namespace {

constexpr std::size_t kChunk = 4096;

/// R3's request handler on N1's epoll workers: attach the deadline
/// parsed off the wire, consult admission, serve under the scope.
class KdlIngress final : public RequestHook {
 public:
  KdlIngress(uk::Kernel& k, net::Net& net, const OverloadConfig& cfg)
      : net_(net), cfg_(cfg) {
    // One Admission per worker, not one per pool: each worker is a
    // serial loop behind its own port, so a request it reads waits for
    // none of the other workers' requests. Its wait in this worker's
    // backlog is already spent from the absolute deadline it carries.
    for (std::size_t w = 0; w < cfg.workers; ++w) adm_.emplace_back(k.dl());
  }

  void start(uk::Proc& srv) override {
    std::lock_guard lk(mu);
    tasks.push_back(&srv.task());
  }
  void handle(std::size_t w, uk::Proc& srv, int connfd,
              const char* req) override;
  void finish(uk::Proc& srv) override {
    std::lock_guard lk(mu);
    std::erase(tasks, &srv.task());
    fds_at_exit += srv.process().fds.open_count();
  }

  std::mutex mu;
  std::vector<sched::Task*> tasks;  ///< the canceller's victims
  std::uint64_t fds_at_exit = 0;    ///< leak oracle (listener/epoll closed)
  std::atomic<std::uint64_t> admitted{0}, sheds{0};

 private:
  void reply(uk::Proc& srv, int connfd, OverloadHdr::Status status) {
    OverloadHdr h{};
    h.status = status;
    net_.sys_send(srv.process(), connfd, &h, sizeof h);
  }

  net::Net& net_;
  const OverloadConfig& cfg_;
  std::deque<dl::Admission> adm_;
};

void KdlIngress::handle(std::size_t w, uk::Proc& srv, int connfd,
                        const char* req) {
  char path[48] = {};
  long long abs_dl_ns = -1;
  unsigned tenant = 0;
  if (std::sscanf(req, "REQ %47s %lld %u", path, &abs_dl_ns, &tenant) < 1) {
    reply(srv, connfd, OverloadHdr::kError);
    return;
  }

  // The wire carries the ABSOLUTE deadline (overload.hpp), so the
  // residual keeps ticking while the request sits in this backlog.
  const std::int64_t now_ns = std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(
                                  dl::Clock::now().time_since_epoch())
                                  .count();
  const std::int64_t rem_at_ingress =
      abs_dl_ns >= 0
          ? abs_dl_ns - now_ns
          : static_cast<std::int64_t>(cfg_.deadline_ms) * 1'000'000;

  // Ingress: the request's end-to-end budget rides the same thread-local
  // stack as kspan, so the gateway and every park below see it for free.
  // A disabled kdl leaves the scope inert and admits everything.
  dl::Kdl& kdl = srv.kernel().dl();
  std::optional<dl::DeadlineScope> scope(
      std::in_place, kdl,
      std::chrono::nanoseconds(std::max<std::int64_t>(rem_at_ingress, 0)),
      &srv.task(), tenant);

  const bool admitting = kdl.enabled();
  if (admitting) {
    const dl::DeadlineScope* d = base::current().deadline;
    if (!adm_[w].try_admit(d != nullptr ? d->remaining_ns()
                                        : rem_at_ingress)) {
      sheds.fetch_add(1, std::memory_order_relaxed);
      // Retire the scope BEFORE answering: a shed request's budget is
      // often already gone, and an expired scope would fail the very
      // send that tells the client to back off (the gateway gates every
      // syscall, the shed response included).
      scope.reset();
      reply(srv, connfd, OverloadHdr::kShed);
      return;
    }
    admitted.fetch_add(1, std::memory_order_relaxed);
  }

  const auto svc0 = dl::Clock::now();
  const int file_fd = serve_file(srv, net_, connfd, path, true);
  if (admitting) {
    adm_[w].depart(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dl::Clock::now() -
                                                             svc0)
            .count()));
  }
  // Release AFTER the scope retires: close() crosses the gateway like
  // everything else, so closing under an expired/cancelled scope would
  // fail and leak the file fd (the storm oracle caught exactly this).
  scope.reset();
  if (file_fd >= 0) cancel_immune(srv, [&] { return srv.close(file_fd); });
}

/// R3's pool is N1's kPlain workers on cfg's ports, serving cfg's
/// documents, which this writes.
WebServerConfig serve_www(uk::Kernel& k, const OverloadConfig& cfg) {
  const WebServerConfig web{.workers = cfg.workers,
                            .file_bytes = cfg.file_bytes,
                            .files = cfg.files,
                            .base_port = cfg.base_port};
  uk::Proc setup(k, "oldsetup");
  populate_www(setup, web);
  return web;
}

// --- client side -------------------------------------------------------------

enum class Outcome { kServed, kShed, kFailed };

/// Exact percentile over a sample vector (sorts a copy; sample counts
/// here are thousands, and log2-bucket resolution would be too coarse
/// for the R3 p99-ratio gate).
std::uint64_t exact_percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// One one-shot exchange: "REQ <path> <abs_deadline_ns> <tenant>", then
/// the OverloadHdr and its payload.
Outcome attempt_once(uk::Proc& cli, net::Net& net, std::uint16_t port,
                     const std::string& path,
                     std::chrono::steady_clock::time_point deadline,
                     std::size_t tenant) {
  char req[kRequestBytes] = {};
  std::snprintf(req, sizeof req, "REQ %s %lld %zu", path.c_str(),
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        deadline.time_since_epoch())
                        .count()),
                tenant);
  uk::Process& p = cli.process();
  int fd = static_cast<int>(net.sys_socket(p));
  if (fd < 0) return Outcome::kFailed;
  if (net.sys_connect(p, fd, port) != 0) {
    cli.close(fd);
    return Outcome::kFailed;
  }
  Outcome res = Outcome::kFailed;
  if (net.sys_send(p, fd, req, kRequestBytes) ==
      static_cast<SysRet>(kRequestBytes)) {
    OverloadHdr h{};
    auto* hp = reinterpret_cast<std::byte*>(&h);
    std::size_t got = 0;
    while (got < sizeof h) {
      SysRet n = net.sys_recv(p, fd, hp + got, sizeof h - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (got == sizeof h && h.magic == OverloadHdr::kMagic) {
      if (h.status == OverloadHdr::kShed) {
        res = Outcome::kShed;
      } else if (h.status == OverloadHdr::kOk) {
        std::byte buf[kChunk];
        std::uint64_t left = h.payload;
        while (left > 0) {
          std::size_t want =
              left < kChunk ? static_cast<std::size_t>(left) : kChunk;
          SysRet n = net.sys_recv(p, fd, buf, want);
          if (n <= 0) break;
          left -= static_cast<std::uint64_t>(n);
        }
        if (left == 0) res = Outcome::kServed;
      }
    }
  }
  cli.close(fd);
  return res;
}

struct CliShared {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> ok_in_deadline{0};
  std::atomic<std::uint64_t> ok_late{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> cli_fds{0};
  std::mutex lat_mu;
  std::vector<std::uint64_t> e2e_ns;  ///< served, from scheduled arrival
  std::vector<std::uint64_t> svc_ns;  ///< the successful attempt alone
  std::vector<std::unique_ptr<dl::RetryBudget>> budgets;  ///< per tenant
  WebServerConfig web;  ///< the pool's ports and documents
  std::chrono::steady_clock::time_point t0;
  std::chrono::nanoseconds inter{0};
};

/// Open-loop executor: pulls arrival indices off the shared schedule and
/// fires each at its scheduled time whether or not earlier requests
/// finished (sleep_until in the past is a no-op, so a backlogged
/// executor runs flat out -- the load does not self-throttle under
/// overload).
void client_worker(uk::Kernel& k, net::Net& net, const OverloadConfig& cfg,
                   std::size_t w, CliShared& sh) {
  uk::Proc cli(k, "oldcli" + std::to_string(w));
  const auto deadline_ns =
      static_cast<std::uint64_t>(cfg.deadline_ms) * 1'000'000;
  for (;;) {
    const std::size_t i = sh.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= cfg.requests) break;
    const auto arrival = sh.t0 + i * sh.inter;
    std::this_thread::sleep_until(arrival);
    const std::size_t tenant = i % cfg.tenants;
    const auto port =
        static_cast<std::uint16_t>(cfg.base_port + i % cfg.workers);
    const std::string path = www_path(sh.web, i);
    // Deadline propagation: the request carries its ABSOLUTE deadline
    // (scheduled arrival + budget), so schedule slip, backoff, transit
    // and the server's own ingress queue all tick against it -- the
    // server computes the true residual at recv time.
    const auto deadline = arrival + std::chrono::nanoseconds(deadline_ns);
    for (;;) {
      const auto a0 = std::chrono::steady_clock::now();
      const Outcome o = attempt_once(cli, net, port, path, deadline, tenant);
      if (o == Outcome::kServed) {
        const auto now = std::chrono::steady_clock::now();
        const auto lat = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 arrival)
                .count());
        const auto svc = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - a0)
                .count());
        {
          std::lock_guard lk(sh.lat_mu);
          sh.e2e_ns.push_back(lat);
          sh.svc_ns.push_back(svc);
        }
        (lat <= deadline_ns ? sh.ok_in_deadline : sh.ok_late)
            .fetch_add(1, std::memory_order_relaxed);
        sh.budgets[tenant]->on_success();
        break;
      }
      (o == Outcome::kShed ? sh.shed : sh.failed)
          .fetch_add(1, std::memory_order_relaxed);
      const dl::RetryBudget::Decision d = sh.budgets[tenant]->on_reject();
      // A retry is only worth the wire if budget will remain after the
      // backoff: once the end-to-end deadline is spent the request is
      // dead regardless of what the retry budget says -- abandon it
      // instead of feeding the server attempts it can only shed.
      const auto rspent = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - arrival)
              .count());
      if (!d.retry || rspent + d.backoff_ns >= deadline_ns) {
        sh.dropped.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(d.backoff_ns));
    }
  }
  sh.cli_fds.fetch_add(cli.process().fds.open_count(),
                       std::memory_order_relaxed);
}

/// The cancellation storm: a seeded xorshift picks a live server task
/// every period and issues Scheduler::cancel against it -- exercising
/// every cancel unwind path (gateway, parks, mid-serve) at random
/// points.
void canceller(uk::Kernel& k, const OverloadConfig& cfg, KdlIngress& sh,
               const std::atomic<bool>& stop,
               std::atomic<std::uint64_t>& issued) {
  std::uint64_t x = cfg.seed != 0 ? cfg.seed : 0x9E3779B97F4A7C15ull;
  // Absolute schedule: a loaded host oversleeps short sleeps, and the
  // periods a late wakeup missed are caught up, so the storm keeps its
  // configured rate instead of slowing with the host.
  auto next = std::chrono::steady_clock::now();
  while (!stop.load(std::memory_order_acquire)) {
    next += std::chrono::microseconds(cfg.cancel_period_us);
    std::this_thread::sleep_until(next);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::lock_guard lk(sh.mu);
    if (sh.tasks.empty()) continue;
    k.scheduler().cancel(*sh.tasks[x % sh.tasks.size()]);
    issued.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

OverloadReport run_overload(uk::Kernel& k, net::Net& net,
                            const OverloadConfig& cfg) {
  OverloadReport rep;
  rep.offered = cfg.requests;
  CliShared cli_sh;
  cli_sh.web = serve_www(k, cfg);

  const std::size_t sockets_before = net.live_sockets();
  const auto km_before =
      static_cast<std::int64_t>(k.kmalloc().stats().outstanding_bytes);

  cli_sh.inter = std::chrono::nanoseconds(
      cfg.offered_rps > 0 ? static_cast<std::uint64_t>(1e9 / cfg.offered_rps)
                          : 0);
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    dl::RetryBudgetConfig rc;
    rc.seed += t;
    cli_sh.budgets.push_back(std::make_unique<dl::RetryBudget>(
        k.dl(), "tenant" + std::to_string(t), rc));
  }

  KdlIngress ingress(k, net, cfg);
  std::atomic<bool> storm_done{false};
  std::atomic<std::uint64_t> cancels_issued{0};
  std::chrono::steady_clock::time_point t1;
  run_servers(k, net, cli_sh.web, [&] {
    std::thread cancel_thread;
    if (cfg.cancel_period_us > 0) {
      cancel_thread =
          std::thread(canceller, std::ref(k), std::cref(cfg),
                      std::ref(ingress), std::cref(storm_done),
                      std::ref(cancels_issued));
    }
    cli_sh.t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(cfg.client_threads);
    for (std::size_t w = 0; w < cfg.client_threads; ++w) {
      clients.emplace_back(client_worker, std::ref(k), std::ref(net),
                           std::cref(cfg), w, std::ref(cli_sh));
    }
    for (std::thread& t : clients) t.join();
    t1 = std::chrono::steady_clock::now();
    storm_done.store(true, std::memory_order_release);
    if (cancel_thread.joinable()) cancel_thread.join();
  }, &ingress);

  rep.ok_in_deadline = cli_sh.ok_in_deadline.load();
  rep.ok_late = cli_sh.ok_late.load();
  rep.shed = cli_sh.shed.load();
  rep.failed = cli_sh.failed.load();
  rep.dropped = cli_sh.dropped.load();
  rep.p99_ns = exact_percentile(cli_sh.e2e_ns, 99.0);
  rep.admitted_p99_ns = exact_percentile(cli_sh.svc_ns, 99.0);
  rep.admitted = ingress.admitted.load();
  rep.server_sheds = ingress.sheds.load();
  rep.leaked_fds = ingress.fds_at_exit + cli_sh.cli_fds.load();
  rep.cancels_issued = cancels_issued.load();

  const std::size_t sockets_after = net.live_sockets();
  rep.leaked_sockets =
      sockets_after > sockets_before ? sockets_after - sockets_before : 0;
  rep.kmalloc_delta =
      static_cast<std::int64_t>(k.kmalloc().stats().outstanding_bytes) -
      km_before;

  rep.elapsed_s = std::chrono::duration<double>(t1 - cli_sh.t0).count();
  rep.throughput_rps =
      rep.elapsed_s > 0
          ? static_cast<double>(rep.ok_in_deadline + rep.ok_late) /
                rep.elapsed_s
          : 0.0;
  return rep;
}

void calibrate_overload(uk::Kernel& k, net::Net& net,
                        const OverloadConfig& cfg, double* rps,
                        std::uint64_t* p99_ns) {
  const WebServerConfig web = serve_www(k, cfg);
  KdlIngress ingress(k, net, cfg);
  // Closed-loop lock-step at concurrency 1: each latency is uncontended
  // service time, and requests/sec is the single-stream service rate
  // (pool capacity ~= this x workers).
  std::vector<std::uint64_t> lats;
  std::uint64_t served = 0;
  double elapsed = 0.0;
  run_servers(k, net, web, [&] {
    uk::Proc cli(k, "oldcal");
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < cfg.requests; ++i) {
      const auto port =
          static_cast<std::uint16_t>(cfg.base_port + i % cfg.workers);
      const auto a0 = std::chrono::steady_clock::now();
      if (attempt_once(cli, net, port, www_path(web, i),
                       a0 + std::chrono::milliseconds(cfg.deadline_ms),
                       i % cfg.tenants) == Outcome::kServed) {
        ++served;
        lats.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - a0)
                .count()));
      }
    }
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  }, &ingress);

  if (rps != nullptr) {
    *rps = elapsed > 0 ? static_cast<double>(served) / elapsed : 0.0;
  }
  if (p99_ns != nullptr) *p99_ns = exact_percentile(std::move(lats), 99.0);
}

}  // namespace usk::workload
