// ktop: a `top` for the simulated kernel, built entirely on /proc.
//
// Build & run:  ./build/examples/ktop
//
// Everything displayed is obtained the way a real top(1) gets it: open(2)
// + read(2) on /proc files -- no private kernel APIs. Each frame runs a
// burst of syscall workload, then renders the per-syscall latency table
// from /proc/trace/hist/syscall plus headline counters from /proc. The
// trace subsystem is switched on by writing to /proc/trace/enable, again
// through the ordinary write(2) path.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "dl/dl.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "store/store.hpp"
#include "sup/slo.hpp"
#include "sup/supervisor.hpp"
#include "trace/span.hpp"
#include "uk/kproc.hpp"
#include "uk/userlib.hpp"

namespace {

using namespace usk;

/// cat(1): read a whole /proc file through the syscall interface.
std::string read_proc_file(uk::Proc& p, const char* path) {
  std::string out;
  int fd = p.open(path, fs::kORdOnly);
  if (fd < 0) return out;
  char buf[1024];
  for (;;) {
    SysRet n = p.read(fd, buf, sizeof buf);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  p.close(fd);
  return out;
}

/// First `n` lines of `text` (header + top rows of a /proc table).
std::string head_lines(const std::string& text, int n) {
  std::size_t pos = 0;
  while (n-- > 0 && pos < text.size()) pos = text.find('\n', pos) + 1;
  return text.substr(0, pos);
}

/// First token of the line containing `key`, after the key ("opens 12" ->
/// "12"); empty if absent.
std::string value_after(const std::string& text, const std::string& key) {
  std::size_t pos = text.find(key);
  if (pos == std::string::npos) return "";
  pos += key.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  std::size_t end = text.find_first_of(" \n", pos);
  return text.substr(pos, end - pos);
}

/// One frame of syscall workload to histogram.
void workload(uk::Proc& p, int round) {
  std::string path = "/work/f" + std::to_string(round % 8);
  int fd = p.open(path.c_str(), fs::kOWrOnly | fs::kOCreat);
  char block[512] = {};
  for (int i = 0; i < 32; ++i) p.write(fd, block, sizeof block);
  p.close(fd);
  fd = p.open(path.c_str(), fs::kORdOnly);
  char in[1024];
  while (p.read(fd, in, sizeof in) > 0) {
  }
  p.close(fd);
  fs::StatBuf st;
  for (int i = 0; i < 16; ++i) p.stat(path.c_str(), &st);
  for (int i = 0; i < 64; ++i) p.getpid();
}

/// Socket traffic so accept/send/recv show up in the latency table: a
/// self-connected loopback pair echoing a few messages.
void socket_workload(net::Net& net, uk::Proc& p, std::uint16_t port) {
  uk::Process& proc = p.process();
  int lfd = static_cast<int>(net.sys_socket(proc));
  net.sys_bind(proc, lfd, port);
  net.sys_listen(proc, lfd, 4);
  int cli = static_cast<int>(net.sys_socket(proc));
  net.sys_connect(proc, cli, port);
  int srv = static_cast<int>(net.sys_accept(proc, lfd));
  char msg[256] = {}, back[256];
  for (int i = 0; i < 16; ++i) {
    net.sys_send(proc, cli, msg, sizeof msg);
    net.sys_recv(proc, srv, back, sizeof back);
  }
  p.close(cli);
  p.close(srv);
  p.close(lfd);
}

/// Supervisor walkthrough: register one extension and drive it through
/// the whole breaker cycle -- two violations put it in probation then
/// quarantine, the backoff window routes invocations to the user-space
/// fallback, a clean probe re-admits it. The story is then read back
/// through /proc/sup/{extensions,events} like any other ktop panel.
void supervisor_workload(sup::Supervisor& s) {
  sup::BreakerPolicy pol;
  pol.violation_threshold = 1;   // one strike starts probation
  pol.probation_clean_runs = 1;  // one clean probe re-admits
  pol.backoff_initial = 2;       // two fallback ticks before the probe
  sup::ExtId id = s.register_extension("ktop.scan", sup::Vehicle::kCosy);
  s.set_policy(id, pol);

  for (int i = 0; i < 8; ++i) {
    sup::Route r = s.route(id);
    sup::InvocationGuard g(s, id, /*task=*/nullptr, r);
    if (r == sup::Route::kFallback) {
      g.set_result(0);  // classic user-space path served the request
      continue;
    }
    // In-kernel path: the first two invocations fault, the rest behave.
    g.set_result(i < 2 ? sysret_err(Errno::kEFAULT) : 0);
  }
}

/// SLO walkthrough: give one extension a 1ms latency budget, feed the
/// monitor two windows of healthy invocations and then two windows of
/// 50ms ones. The sustained burn raises kSloBreach on the supervisor;
/// /proc/sup/slo shows the windows and the breach the way a real SRE
/// dashboard would.
void slo_workload(sup::Supervisor& s, sup::SloMonitor& slo) {
  sup::SloPolicy pol;
  pol.latency_threshold_ns = 1000000;  // 1ms per-invocation budget
  pol.window = 8;
  pol.breach_windows = 2;
  sup::ExtId id = s.register_extension("ktop.render", sup::Vehicle::kCosy);
  slo.set_policy(id, pol);
  for (int i = 0; i < 16; ++i) slo.observe(id, 200000, true);    // healthy
  for (int i = 0; i < 16; ++i) slo.observe(id, 50000000, true);  // burn
}

/// Storage workload: commit a burst of transactions through the group-
/// commit journal and push pages through the writeback cache, so the
/// storage panel has live journal amortization and cache counters.
void storage_workload(store::Store& st, blockdev::BufferCache& cache) {
  std::vector<std::uint8_t> page(4096);
  for (int i = 0; i < 32; ++i) {
    store::JTxn txn = st.begin_txn();
    std::fill(page.begin(), page.end(), static_cast<std::uint8_t>(i));
    txn.append(/*kind=*/0, /*target=*/static_cast<std::uint32_t>(i % 64 + 1),
               page.data(), page.size());
    (void)st.commit_txn(std::move(txn));
    (void)cache.write_data(static_cast<blockdev::Lba>(i % 96), page.data());
  }
  (void)st.checkpoint();
}

/// Ring workload: one SQ/CQ ring serving a batch of linked open->read->
/// close chains in a single ring_enter, so the rings panel has live
/// geometry and drain counters to show.
void ring_workload(ring::RingDev& rdev, uk::Proc& p) {
  uk::Process& proc = p.process();
  int rfd = static_cast<int>(rdev.sys_ring_setup(proc, 16, 4096));
  if (rfd < 0) return;
  auto rg = rdev.user_map(proc, rfd).value();
  const char* path = "/work/f0";
  std::byte* arena = rg->user_data(0, 16);
  std::memcpy(arena, path, std::strlen(path) + 1);
  for (std::uint64_t c = 0; c < 4; ++c) {
    ring::Sqe open{};
    open.user_data = c * 3;
    open.nr = uk::Sys::kOpen;
    open.flags = ring::kSqeLink;
    open.args = {0, fs::kORdOnly, 0644};
    rg->user_prepare(open);
    ring::Sqe read{};
    read.user_data = c * 3 + 1;
    read.nr = uk::Sys::kRead;
    read.flags = ring::kSqeLink;
    read.args = {ring::kFdChain, 64 + c * 256, 256};
    rg->user_prepare(read);
    ring::Sqe close{};
    close.user_data = c * 3 + 2;
    close.nr = uk::Sys::kClose;
    close.args = {ring::kFdChain};
    rg->user_prepare(close);
  }
  rdev.sys_ring_enter(proc, rfd, ring::RingDev::kDrainAll, 0, 0);
  ring::Cqe cqes[16];
  while (rg->user_reap(cqes, 16) > 0) {
  }
  // Leave the fd open: the panel shows a LIVE ring, main closes it after.
}

/// Deadline walkthrough: arm kdl through /proc/dl/enable the way a shell
/// would, then drive one of everything the panel reports -- requests that
/// complete inside their budget, one that expires at the syscall gateway,
/// admission sheds against a warmed service estimate, and a tenant retry
/// budget rejected to exhaustion -- so /proc/dl/{stats,tenants} have live
/// numbers to show.
void deadline_workload(uk::Proc& p, dl::RetryBudget& tenant) {
  int fd = p.open("/proc/dl/enable", fs::kOWrOnly);
  if (fd >= 0) {
    p.write(fd, "1\n", 2);
    p.close(fd);
  }
  using namespace std::chrono_literals;
  for (int i = 0; i < 8; ++i) {
    dl::DeadlineScope scope(p.kernel().dl(), 50ms, &p.task(), /*tenant=*/0);
    (void)p.getpid();
  }
  {
    dl::DeadlineScope expired(p.kernel().dl(), std::chrono::nanoseconds(0),
                              &p.task());
    (void)p.getpid();  // gateway fail-fast: -ETIMEDOUT, counted
  }
  dl::Admission adm(p.kernel().dl());
  for (int i = 0; i < 40; ++i) {
    if (adm.try_admit(1'000'000'000)) adm.depart(2'000'000);
  }
  (void)adm.try_admit(1);  // infeasible budget: shed at ingress
  while (tenant.on_reject().retry) {
  }
  tenant.on_success();
}

void render_frame(uk::Proc& p, int frame) {
  std::string self = read_proc_file(p, "/proc/self/stat");
  std::string vfs = read_proc_file(p, "/proc/vfs/stats");
  std::string dcache = read_proc_file(p, "/proc/vfs/dcache");
  std::string netstats = read_proc_file(p, "/proc/net/stats");
  std::string hist = read_proc_file(p, "/proc/trace/hist/syscall");

  std::printf("\n--- ktop frame %d ---------------------------------------\n",
              frame);
  std::printf("task %s (pid %s)  syscalls %s  kernel_wall_ns %s\n",
              value_after(self, "name").c_str(),
              value_after(self, "pid").c_str(),
              value_after(self, "syscalls").c_str(),
              value_after(self, "kernel_wall_ns").c_str());
  std::printf("vfs: opens %s reads %s writes %s   dcache: %s/%s hits\n",
              value_after(vfs, "opens").c_str(),
              value_after(vfs, "reads").c_str(),
              value_after(vfs, "writes").c_str(),
              value_after(dcache, "hits").c_str(),
              value_after(dcache, "lookups").c_str());
  std::printf("net: conns %s pkts %s bytes %s\n",
              value_after(netstats, "conns_accepted").c_str(),
              value_after(netstats, "packets_sent").c_str(),
              value_after(netstats, "bytes_sent").c_str());

  // Per-syscall latency table: /proc/trace/hist/syscall emits one summary
  // line per syscall ("open count N avg_ns A p50_ns B p99_ns C max_ns D")
  // followed by indented bucket rows, which top-style output skips.
  std::printf("%-14s %10s %10s %10s %10s %12s\n", "SYSCALL", "COUNT",
              "AVG(ns)", "P50(ns)", "P99(ns)", "MAX(ns)");
  std::size_t start = 0;
  while (start < hist.size()) {
    std::size_t end = hist.find('\n', start);
    if (end == std::string::npos) end = hist.size();
    std::string line = hist.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == ' ') continue;  // bucket row
    std::string name = line.substr(0, line.find(' '));
    std::printf("%-14s %10s %10s %10s %10s %12s\n", name.c_str(),
                value_after(line, "count").c_str(),
                value_after(line, "avg_ns").c_str(),
                value_after(line, "p50_ns").c_str(),
                value_after(line, "p99_ns").c_str(),
                value_after(line, "max_ns").c_str());
  }
}

/// Scheduler panel feed: run a short pooled-dispatch burst on the
/// kernel's own scheduler -- tasks skewed onto two home runqueues, four
/// worker threads draining with pick_next (so stealing shows up) -- plus
/// one park/wake round trip, so /proc/sched/runqueues has live numbers.
void sched_workload(uk::Kernel& kernel) {
  sched::Scheduler& s = kernel.scheduler();
  std::vector<sched::Task*> tasks;
  for (int i = 0; i < 64; ++i) {
    sched::Task& t = s.spawn("pool" + std::to_string(i));
    s.bind(t, static_cast<std::size_t>(i % 2));
    tasks.push_back(&t);
    s.enqueue(t);
  }
  std::atomic<int> picked{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      while (picked.load(std::memory_order_relaxed) <
             static_cast<int>(tasks.size())) {
        if (s.pick_next() == nullptr) {
          std::this_thread::yield();
          continue;
        }
        picked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();

  sched::WaitQueue wq;
  std::atomic<bool> armed{false};
  std::thread sleeper([&] {
    s.enter(s.spawn("parker"));
    sched::WaitQueue::Token tok = wq.prepare();
    armed.store(true);
    (void)s.block(wq, tok);
  });
  while (!armed.load()) std::this_thread::yield();
  wq.wake_all();  // the token predates this wake, so the park always ends
  sleeper.join();
}

}  // namespace

int main() {
  fs::MemFs rootfs;
  uk::Kernel kernel(rootfs);
  rootfs.set_cost_hook(kernel.charge_hook());
  net::Net net(kernel);
  net.register_proc(kernel.mount_procfs());
  sup::Supervisor supervisor(kernel);
  supervisor.register_proc(kernel.mount_procfs());
  sup::SloMonitor slo(supervisor);
  slo.register_proc(kernel.mount_procfs());
  ring::RingDev rdev(kernel);
  rdev.register_proc(kernel.mount_procfs());

  // Storage tier: a real backing image file under a writeback page cache
  // and group-commit journal, surfaced at /proc/{blockdev,store}/**.
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 128);
  const bench::TempDir tmp;
  store::Store store;
  const bool store_up = store.open(tmp.file("ktop_store.img")).ok();
  if (store_up) store.attach_cache(&cache);
  uk::register_storage_proc(kernel.mount_procfs(),
                            store_up ? &store : nullptr, &cache);
  cache.start_writeback();

  uk::Proc top(kernel, "ktop");
  top.mkdir("/work");

  // Switch the tracer and the span collector on the way a shell would:
  // echo 1 > /proc/trace/enable, echo 1 > /proc/span/enable.
  for (const char* knob : {"/proc/trace/enable", "/proc/span/enable"}) {
    int fd = top.open(knob, fs::kOWrOnly);
    top.write(fd, "1\n", 2);
    top.close(fd);
  }

  for (int frame = 1; frame <= 3; ++frame) {
    // Each frame's burst runs under a root span, so every syscall Scope
    // below attributes its crossings and copy bytes to "ktop.frame".
    {
      trace::SpanScope span("ktop.frame", trace::SpanVehicle::kPlain);
      for (int round = 0; round < 8; ++round) workload(top, round);
      socket_workload(net, top, static_cast<std::uint16_t>(9000 + frame));
    }
    render_frame(top, frame);
  }

  // Extension-supervisor panel: walk one extension through violation ->
  // probation -> quarantine -> fallback -> probe -> re-admission, then
  // show the breaker state and event ledger straight from /proc/sup.
  supervisor_workload(supervisor);
  std::printf("\nextension breaker state (/proc/sup/extensions):\n%s",
              read_proc_file(top, "/proc/sup/extensions").c_str());
  std::printf("\nbreaker event ledger (/proc/sup/events):\n%s",
              read_proc_file(top, "/proc/sup/events").c_str());

  // Rings panel: per-ring geometry and queue depths plus the aggregate
  // drain counters, read back through /proc/ring like everything else.
  ring_workload(rdev, top);
  std::printf("\nsubmission rings (/proc/ring/rings):\n%s",
              read_proc_file(top, "/proc/ring/rings").c_str());
  std::printf("\nring drain counters (/proc/ring/stats):\n%s",
              read_proc_file(top, "/proc/ring/stats").c_str());

  // Storage panel: group-commit amortization, image traffic, and page-
  // cache behaviour, read back through /proc like every other panel.
  if (store_up) storage_workload(store, cache);
  cache.stop_writeback();
  std::printf("\npage cache (/proc/blockdev/cache):\n%s",
              read_proc_file(top, "/proc/blockdev/cache").c_str());
  if (store_up) {
    std::printf("\nbacking store (/proc/store/stats):\n%s",
                read_proc_file(top, "/proc/store/stats").c_str());
    std::printf("\ngroup-commit journal (/proc/store/journal):\n%s",
                read_proc_file(top, "/proc/store/journal").c_str());
    store.close();
  }

  // Scheduler panel: per-CPU runqueue depths, steal/migration counters,
  // and the park/wake ledger, fed by a pooled-dispatch burst on the
  // kernel's own scheduler and read back through /proc/sched/**.
  sched_workload(kernel);
  std::printf("\nper-CPU runqueues (/proc/sched/runqueues):\n%s",
              head_lines(read_proc_file(top, "/proc/sched/runqueues"), 10)
                  .c_str());
  std::printf("\nscheduler counters (/proc/sched/stats):\n%s",
              read_proc_file(top, "/proc/sched/stats").c_str());

  // Spans + SLO panel: the frame spans collected above, one extension
  // driven through a sustained latency burn, and the Prometheus scrape --
  // all read back through /proc like every other panel.
  slo_workload(supervisor, slo);
  std::printf("\nrequest spans (/proc/span/stats):\n%s",
              read_proc_file(top, "/proc/span/stats").c_str());
  std::printf("\nspan store, first rows (/proc/span/spans):\n%s",
              head_lines(read_proc_file(top, "/proc/span/spans"), 8).c_str());
  std::printf("\nextension SLOs (/proc/sup/slo):\n%s",
              read_proc_file(top, "/proc/sup/slo").c_str());

  // Deadline panel: request budgets, gateway fail-fasts, admission
  // sheds, and per-tenant retry budgets, read back through /proc/dl.
  // The tenant outlives the workload: /proc/dl/tenants shows LIVE
  // budgets, and a destroyed one leaves the table.
  dl::RetryBudgetConfig tenant_cfg;
  tenant_cfg.budget = 2;
  dl::RetryBudget tenant(kernel.dl(), "ktop.tenant", tenant_cfg);
  deadline_workload(top, tenant);
  std::printf("\ndeadline enforcement (/proc/dl/stats):\n%s",
              read_proc_file(top, "/proc/dl/stats").c_str());
  std::printf("\nretry budgets by tenant (/proc/dl/tenants):\n%s",
              read_proc_file(top, "/proc/dl/tenants").c_str());

  std::printf("\nmetrics scrape (/proc/metrics):\n%s",
              read_proc_file(top, "/proc/metrics").c_str());

  std::printf("\ntracepoint sites (/proc/trace/events):\n%s",
              read_proc_file(top, "/proc/trace/events").c_str());
  return 0;
}
