#include "workload/overload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sched/scheduler.hpp"
#include "sup/supervisor.hpp"

namespace usk::workload {

namespace {

constexpr std::size_t kChunk = 4096;

std::string overload_path(const OverloadConfig& cfg, std::size_t i) {
  return "/www/o" + std::to_string(i % cfg.files);
}

/// Shared server-pool state: the stop flag flipped after the last
/// arrival and the task registry the canceller picks victims from.
struct SrvShared {
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<sched::Task*> tasks;
};

struct SrvSample {
  std::uint64_t admitted = 0;
  std::uint64_t sheds = 0;
  std::uint64_t aborts = 0;            ///< serve died mid-response
  std::uint64_t cancels_observed = 0;  ///< request-less ECANCELED cleared
  std::uint64_t fds_at_exit = 0;       ///< leak oracle (0 after lfd/ep close)
};

bool send_all(uk::Proc& srv, net::Net& net, int fd, const void* buf,
              std::size_t n) {
  return net.sys_send(srv.process(), fd, buf, n) == static_cast<SysRet>(n);
}

/// Run a cleanup-side syscall to completion through a cancellation
/// storm: ECANCELED from the gateway means a cancel landed between the
/// unwind point and this call -- the worker IS the unwind target, so it
/// absorbs the cancel and retries. Without this, a cancel racing the
/// post-request epoll_ctl(DEL)/close would orphan the connection fd (the
/// leak the oracle exists to catch) and strand its client forever.
SysRet cancel_immune(uk::Proc& srv, SrvSample& out, auto&& call) {
  for (;;) {
    SysRet r = call();
    if (r != sysret_err(Errno::kECANCELED)) return r;
    srv.task().set_cancel_pending(false);
    ++out.cancels_observed;
  }
}

/// The classic stat/open/read+send chunk loop behind one OverloadHdr.
/// Any negative SysRet (ETIMEDOUT/ECANCELED landing through the gateway
/// or a park, exactly like every other errno) unwinds it. The opened
/// file fd is handed BACK through `file_fd` instead of being closed
/// here: under an expired or cancelled scope even close() fails at the
/// gateway, so release belongs to the caller, after the scope retires
/// (the acquire-under-scope / release-after-retire rule).
bool serve_file(uk::Proc& srv, net::Net& net, int connfd, const char* path,
                int* file_fd) {
  *file_fd = -1;
  fs::StatBuf st{};
  if (srv.stat(path, &st) != 0) {
    OverloadHdr h{};
    h.status = OverloadHdr::kError;
    send_all(srv, net, connfd, &h, sizeof h);
    return false;
  }
  OverloadHdr h{};
  h.payload = st.size;
  bool ok = send_all(srv, net, connfd, &h, sizeof h);
  int fd = ok ? srv.open(path, fs::kORdOnly) : -1;
  if (fd < 0) return false;
  *file_fd = fd;
  std::byte buf[kChunk];
  std::uint64_t left = st.size;
  while (ok && left > 0) {
    std::size_t want = left < kChunk ? static_cast<std::size_t>(left) : kChunk;
    SysRet n = srv.read(fd, buf, want);
    ok = n > 0 && send_all(srv, net, connfd, buf, static_cast<std::size_t>(n));
    if (n > 0) left -= static_cast<std::uint64_t>(n);
  }
  return ok;
}

/// One request: attach the deadline parsed off the wire, consult
/// admission, serve under the scope.
void handle_request(uk::Proc& srv, net::Net& net, const OverloadConfig& cfg,
                    dl::Admission& adm, int connfd, const char* req,
                    SrvSample& out) {
  char path[48] = {};
  long long abs_dl_ns = -1;
  unsigned tenant = 0;
  if (std::sscanf(req, "REQ %47s %lld %u", path, &abs_dl_ns, &tenant) < 1) {
    OverloadHdr h{};
    h.status = OverloadHdr::kError;
    send_all(srv, net, connfd, &h, sizeof h);
    return;
  }

  // The wire carries the ABSOLUTE deadline: the residual budget must
  // keep ticking while the request sits in this server's own accept/
  // epoll backlog (under overload that queue IS where most of the
  // budget goes; a residual-at-send-time encoding would hide it and the
  // server would happily serve requests that are already long dead).
  const std::int64_t now_ns = std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(
                                  dl::Clock::now().time_since_epoch())
                                  .count();
  const std::int64_t rem_at_ingress =
      abs_dl_ns >= 0
          ? abs_dl_ns - now_ns
          : static_cast<std::int64_t>(cfg.deadline_ms) * 1'000'000;

  // Ingress: the request's end-to-end budget rides the same thread-local
  // stack as kspan, so the gateway and every park below see it for free.
  std::optional<dl::DeadlineScope> scope;
  if (cfg.deadlines) {
    scope.emplace(srv.kernel().dl(),
                  std::chrono::nanoseconds(
                      std::max<std::int64_t>(rem_at_ingress, 0)),
                  &srv.task(), tenant);
  }

  const bool admitting = cfg.shedding && srv.kernel().dl().enabled();
  if (admitting) {
    const std::int64_t rem =
        scope && dl::DeadlineScope::current() != nullptr
            ? dl::DeadlineScope::current()->remaining_ns()
            : rem_at_ingress;
    if (!adm.try_admit(rem)) {
      ++out.sheds;
      // Retire the scope BEFORE answering: a shed request's budget is
      // often already gone, and an expired scope would fail the very
      // send that tells the client to back off (the gateway gates every
      // syscall, the shed response included).
      scope.reset();
      OverloadHdr h{};
      h.status = OverloadHdr::kShed;
      send_all(srv, net, connfd, &h, sizeof h);
      return;
    }
    ++out.admitted;
  }

  const auto svc0 = dl::Clock::now();
  int file_fd = -1;
  const bool ok = serve_file(srv, net, connfd, path, &file_fd);
  if (admitting) {
    adm.depart(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dl::Clock::now() -
                                                             svc0)
            .count()));
  }
  // Release AFTER the scope retires: close() crosses the gateway like
  // everything else, so closing under an expired/cancelled scope would
  // fail and leak the file fd (the storm oracle caught exactly this).
  scope.reset();
  if (file_fd >= 0) {
    cancel_immune(srv, out, [&] { return srv.close(file_fd); });
  }
  if (!ok) ++out.aborts;
}

/// One epoll pass. Returns the number of events handled, or -1 when the
/// worker was hard-killed. A cancel that lands with no request in flight
/// surfaces here as ECANCELED out of epoll_wait (or accept/recv): the
/// worker clears the flag and goes back to waiting -- nothing was held,
/// nothing leaks.
int server_step(uk::Proc& srv, net::Net& net, const OverloadConfig& cfg,
                dl::Admission& adm, int lfd, int ep,
                std::vector<net::EpollEvent>& evs, int timeout_ms,
                SrvSample& out) {
  uk::Process& p = srv.process();
  SysRet n = net.sys_epoll_wait(p, ep, evs.data(),
                                static_cast<int>(evs.size()), timeout_ms);
  if (n == sysret_err(Errno::kECANCELED)) {
    srv.task().set_cancel_pending(false);
    ++out.cancels_observed;
    return 0;
  }
  if (n < 0) return -1;  // killed by the watchdog
  int handled = 0;
  for (SysRet i = 0; i < n; ++i) {
    const net::EpollEvent& ev = evs[static_cast<std::size_t>(i)];
    ++handled;
    if (ev.fd == lfd) {
      SysRet connfd = cancel_immune(
          srv, out, [&] { return net.sys_accept(p, lfd); });
      if (connfd >= 0) {
        cancel_immune(srv, out, [&] {
          return net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd,
                                   static_cast<int>(connfd), net::kEpollIn);
        });
      }
      continue;
    }
    // One-shot protocol: request, response, server-side close.
    char req[kOverloadRequestBytes] = {};
    SysRet r = net.sys_recv(p, ev.fd, req, kOverloadRequestBytes);
    if (r == sysret_err(Errno::kECANCELED)) {
      srv.task().set_cancel_pending(false);
      ++out.cancels_observed;
    } else if (r > 0) {
      handle_request(srv, net, cfg, adm, ev.fd, req, out);
    }
    cancel_immune(srv, out, [&] {
      return net.sys_epoll_ctl(p, ep, net::kEpollCtlDel, ev.fd, 0);
    });
    cancel_immune(srv, out, [&] { return srv.close(ev.fd); });
    // The DeadlineScope destructor cleared a mid-serve cancel when a
    // scope was armed; this clears it otherwise (deadlines off / kdl
    // disabled) so the next request is not spuriously canceled.
    if (cfg.cancel_period_us > 0) srv.task().set_cancel_pending(false);
  }
  return handled;
}

void server_worker(uk::Kernel& k, net::Net& net, const OverloadConfig& cfg,
                   std::size_t w, SrvShared& sh, std::atomic<bool>& ready,
                   SrvSample& out) {
  uk::Proc srv(k, "oldsrv" + std::to_string(w));
  uk::Process& p = srv.process();
  const auto port = static_cast<std::uint16_t>(cfg.base_port + w);

  int lfd = static_cast<int>(net.sys_socket(p));
  net.sys_bind(p, lfd, port);
  net.sys_listen(p, lfd, 128);
  int ep = static_cast<int>(net.sys_epoll_create(p));
  net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, lfd, net::kEpollIn);
  {
    std::lock_guard lk(sh.mu);
    sh.tasks.push_back(&srv.task());
  }
  // One Admission per worker, not one per pool: each worker is a serial
  // loop behind its own port, so a request it reads waits for none of
  // the other workers' requests. Its wait in this worker's backlog is
  // already spent from the absolute deadline it carries.
  dl::Admission adm(k.dl(), cfg.admission);
  ready.store(true, std::memory_order_release);

  std::vector<net::EpollEvent> evs(16);
  while (!sh.stop.load(std::memory_order_acquire)) {
    if (server_step(srv, net, cfg, adm, lfd, ep, evs, 10, out) < 0) break;
  }
  {
    std::lock_guard lk(sh.mu);
    std::erase(sh.tasks, &srv.task());
  }
  srv.task().set_cancel_pending(false);
  // Drain: clients are done, but accepted connections with queued
  // requests (or EOFs) may still be watched. Bounded pass so every conn
  // fd is retired before the leak-oracle sample.
  for (int i = 0; i < 256; ++i) {
    if (server_step(srv, net, cfg, adm, lfd, ep, evs, 0, out) <= 0) break;
  }
  cancel_immune(srv, out, [&] {
    return net.sys_epoll_ctl(p, ep, net::kEpollCtlDel, lfd, 0);
  });
  cancel_immune(srv, out, [&] { return srv.close(ep); });
  cancel_immune(srv, out, [&] { return srv.close(lfd); });
  out.fds_at_exit = p.fds.open_count();
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

Outcome attempt_once(uk::Proc& cli, net::Net& net, std::uint16_t port,
                     const char* req) {
  uk::Process& p = cli.process();
  int fd = static_cast<int>(net.sys_socket(p));
  if (fd < 0) return Outcome::kFailed;
  if (net.sys_connect(p, fd, port) != 0) {
    cli.close(fd);
    return Outcome::kFailed;
  }
  Outcome res = Outcome::kFailed;
  if (net.sys_send(p, fd, req, kOverloadRequestBytes) ==
      static_cast<SysRet>(kOverloadRequestBytes)) {
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
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> ok_in_deadline{0};
  std::atomic<std::uint64_t> ok_late{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> budget_exhausted{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> cli_fds{0};
  std::mutex lat_mu;
  std::vector<std::uint64_t> e2e_ns;  ///< served, from scheduled arrival
  std::vector<std::uint64_t> svc_ns;  ///< the successful attempt alone
  std::vector<std::unique_ptr<dl::RetryBudget>> budgets;  ///< per tenant
  std::vector<sup::ExtId> tenant_ext;
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
    const std::string path = overload_path(cfg, i);
    // Deadline propagation: the request carries its ABSOLUTE deadline
    // (scheduled arrival + budget), so schedule slip, backoff, transit
    // and the server's own ingress queue all tick against it -- the
    // server computes the true residual at recv time.
    const auto abs_deadline =
        arrival + std::chrono::nanoseconds(deadline_ns);
    const auto abs_dl_ns = static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            abs_deadline.time_since_epoch())
            .count());
    for (;;) {
      const auto a0 = std::chrono::steady_clock::now();
      char req[kOverloadRequestBytes] = {};
      std::snprintf(req, sizeof req, "REQ %s %lld %zu", path.c_str(),
                    abs_dl_ns, tenant);
      sh.attempts.fetch_add(1, std::memory_order_relaxed);
      const Outcome o = attempt_once(cli, net, port, req);
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
      if (!d.retry) {
        sh.dropped.fetch_add(1, std::memory_order_relaxed);
        sh.budget_exhausted.fetch_add(1, std::memory_order_relaxed);
        if (cfg.supervisor != nullptr && sh.tenant_ext[tenant] >= 0) {
          cfg.supervisor->record_violation(sh.tenant_ext[tenant],
                                           sup::ViolationKind::kRetryBudget,
                                           Errno::kETIMEDOUT);
        }
        break;
      }
      // A retry is only worth the wire if budget will remain after the
      // backoff: once the end-to-end deadline is spent the request is
      // dead regardless of what the retry budget says -- abandon it
      // instead of feeding the server attempts it can only shed.
      const auto rspent = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - arrival)
              .count());
      if (rspent + d.backoff_ns >= deadline_ns) {
        sh.dropped.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      sh.retries.fetch_add(1, std::memory_order_relaxed);
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
void canceller(uk::Kernel& k, const OverloadConfig& cfg, SrvShared& sh,
               std::atomic<std::uint64_t>& issued) {
  std::uint64_t x = cfg.seed != 0 ? cfg.seed : 0x9E3779B97F4A7C15ull;
  // Absolute schedule: a loaded host oversleeps short sleeps, and the
  // periods a late wakeup missed are caught up, so the storm keeps its
  // configured rate instead of slowing with the host.
  auto next = std::chrono::steady_clock::now();
  while (!sh.stop.load(std::memory_order_acquire)) {
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

void populate_overload_www(uk::Proc& p, const OverloadConfig& cfg) {
  p.mkdir("/www");
  std::vector<std::byte> block(cfg.file_bytes, std::byte{0x42});
  for (std::size_t i = 0; i < cfg.files; ++i) {
    const std::string path = overload_path(cfg, i);
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

OverloadReport run_overload(uk::Kernel& k, net::Net& net,
                            const OverloadConfig& cfg) {
  OverloadReport rep;
  rep.offered = cfg.requests;

  const std::size_t sockets_before = net.live_sockets();
  const auto km_before =
      static_cast<std::int64_t>(k.kmalloc().stats().outstanding_bytes);

  SrvShared srv_sh;
  CliShared cli_sh;
  cli_sh.inter = std::chrono::nanoseconds(
      cfg.offered_rps > 0 ? static_cast<std::uint64_t>(1e9 / cfg.offered_rps)
                          : 0);
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    dl::RetryBudgetConfig rc = cfg.retry;
    rc.seed = cfg.retry.seed + t;
    cli_sh.budgets.push_back(std::make_unique<dl::RetryBudget>(
        k.dl(), "tenant" + std::to_string(t), rc));
    cli_sh.tenant_ext.push_back(
        cfg.supervisor != nullptr
            ? cfg.supervisor->register_extension("tenant" + std::to_string(t),
                                                 sup::Vehicle::kMonitor)
            : -1);
  }

  std::vector<SrvSample> samples(cfg.workers);
  std::vector<std::unique_ptr<std::atomic<bool>>> ready;
  ready.reserve(cfg.workers);
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    ready.push_back(std::make_unique<std::atomic<bool>>(false));
  }

  std::vector<std::thread> servers;
  servers.reserve(cfg.workers);
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    servers.emplace_back(server_worker, std::ref(k), std::ref(net),
                         std::cref(cfg), w, std::ref(srv_sh),
                         std::ref(*ready[w]), std::ref(samples[w]));
  }
  for (auto& r : ready) {
    while (!r->load(std::memory_order_acquire)) std::this_thread::yield();
  }

  std::atomic<std::uint64_t> cancels_issued{0};
  std::thread cancel_thread;
  if (cfg.cancel_period_us > 0) {
    cancel_thread = std::thread(canceller, std::ref(k), std::cref(cfg),
                                std::ref(srv_sh), std::ref(cancels_issued));
  }

  cli_sh.t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(cfg.client_threads);
  for (std::size_t w = 0; w < cfg.client_threads; ++w) {
    clients.emplace_back(client_worker, std::ref(k), std::ref(net),
                         std::cref(cfg), w, std::ref(cli_sh));
  }
  for (std::thread& t : clients) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  srv_sh.stop.store(true, std::memory_order_release);
  if (cancel_thread.joinable()) cancel_thread.join();
  for (std::thread& t : servers) t.join();

  rep.attempts = cli_sh.attempts.load();
  rep.ok_in_deadline = cli_sh.ok_in_deadline.load();
  rep.ok_late = cli_sh.ok_late.load();
  rep.shed = cli_sh.shed.load();
  rep.failed = cli_sh.failed.load();
  rep.retries = cli_sh.retries.load();
  rep.budget_exhausted = cli_sh.budget_exhausted.load();
  rep.dropped = cli_sh.dropped.load();
  rep.p50_ns = exact_percentile(cli_sh.e2e_ns, 50.0);
  rep.p99_ns = exact_percentile(cli_sh.e2e_ns, 99.0);
  rep.admitted_p50_ns = exact_percentile(cli_sh.svc_ns, 50.0);
  rep.admitted_p99_ns = exact_percentile(cli_sh.svc_ns, 99.0);
  for (const SrvSample& s : samples) {
    rep.admitted += s.admitted;
    rep.server_sheds += s.sheds;
    rep.serve_aborts += s.aborts;
    rep.leaked_fds += s.fds_at_exit;
  }
  rep.leaked_fds += cli_sh.cli_fds.load();
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
  SrvShared sh;
  std::vector<SrvSample> samples(cfg.workers);
  std::vector<std::unique_ptr<std::atomic<bool>>> ready;
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    ready.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  std::vector<std::thread> servers;
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    servers.emplace_back(server_worker, std::ref(k), std::ref(net),
                         std::cref(cfg), w, std::ref(sh),
                         std::ref(*ready[w]), std::ref(samples[w]));
  }
  for (auto& r : ready) {
    while (!r->load(std::memory_order_acquire)) std::this_thread::yield();
  }

  // Closed-loop lock-step at concurrency 1: each latency is uncontended
  // service time, and requests/sec is the single-stream service rate
  // (pool capacity ~= this x workers).
  uk::Proc cli(k, "oldcal");
  std::vector<std::uint64_t> lats;
  std::uint64_t served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    const auto port =
        static_cast<std::uint16_t>(cfg.base_port + i % cfg.workers);
    const auto a0 = std::chrono::steady_clock::now();
    const auto abs_dl_ns = static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            (a0 + std::chrono::milliseconds(cfg.deadline_ms))
                .time_since_epoch())
            .count());
    char req[kOverloadRequestBytes] = {};
    std::snprintf(req, sizeof req, "REQ %s %lld %zu",
                  overload_path(cfg, i).c_str(), abs_dl_ns, i % cfg.tenants);
    if (attempt_once(cli, net, port, req) == Outcome::kServed) {
      ++served;
      lats.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - a0)
              .count()));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  sh.stop.store(true, std::memory_order_release);
  for (std::thread& t : servers) t.join();

  if (rps != nullptr) {
    *rps = elapsed > 0 ? static_cast<double>(served) / elapsed : 0.0;
  }
  if (p99_ns != nullptr) *p99_ns = exact_percentile(std::move(lats), 99.0);
}

}  // namespace usk::workload
