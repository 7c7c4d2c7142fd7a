// web-plain and web-cosy: two closed-loop client/server pairs on one
// Kernel + MemFs + net::Net, modelled on the N1 webserver
// (src/workload/webserver.cpp) but with the loops here so that every call
// into a layer can be timed and every response byte-checked.
//
// Each client opens a connection, makes kRequestsPerConn lock-step
// keep-alive requests for one of kDocs documents (picked by the seed),
// closes it, and repeats until the deadline; the deadline is only checked
// between connections, so the count window is whole connections and the
// per-request counts are exact. The plain server answers each request
// with stat, open, 4x (read, send), close; the Cosy server receives the
// first request and serves the rest of the connection in one compound.
#include <algorithm>
#include <array>
#include <chrono>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "base/rng.hpp"
#include "bench.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "fs/memfs.hpp"
#include "net/net.hpp"
#include "uk/userlib.hpp"

namespace uskbench {
namespace {

using namespace usk;

constexpr std::size_t kPairs = 2;
constexpr std::size_t kDocs = 4;
constexpr std::size_t kDocBytes = 16 * 1024;
constexpr std::size_t kChunk = 4096;
constexpr std::size_t kRequestBytes = 64;
constexpr std::size_t kRequestsPerConn = 8;
constexpr std::size_t kSampleOps = 1000;

using Docs = std::array<std::vector<std::byte>, kDocs>;

std::string doc_path(std::size_t d) { return "/www/doc" + std::to_string(d); }

/// Seeded, distinct content per document, so a wrong file shows up.
Docs make_docs(std::uint64_t seed) {
  Docs docs;
  for (std::size_t d = 0; d < kDocs; ++d) {
    base::Rng rng(seed * 0x9E3779B97F4A7C15ull + d + 1);
    docs[d].resize(kDocBytes);
    for (std::byte& b : docs[d]) b = static_cast<std::byte>(rng.next() >> 56);
  }
  return docs;
}

/// Wire format: "GET <path> <op id>", NUL-padded to kRequestBytes.
void format_request(char* req, std::size_t doc, std::uint64_t id) {
  std::memset(req, 0, kRequestBytes);
  std::snprintf(req, kRequestBytes, "GET %s %llu", doc_path(doc).c_str(),
                static_cast<unsigned long long>(id));
}

bool parse_request(const char* req, std::string* path, std::uint64_t* id) {
  char p[kRequestBytes];
  unsigned long long v = 0;
  if (std::sscanf(req, "GET %63s %llu", p, &v) != 2) return false;
  *path = p;
  *id = v;
  return true;
}

/// Destroyed bottom-up: the network, then the kernel, then its root fs.
struct WebStack {
  fs::MemFs memfs;
  std::unique_ptr<uk::Kernel> k;
  std::unique_ptr<net::Net> net;
};

/// Construct the kernel and write the documents; times both.
std::unique_ptr<WebStack> setup(const Docs& docs, SetupTimes& st) {
  const std::uint64_t t0 = now_ns();
  auto s = std::make_unique<WebStack>();
  const std::uint64_t c0 = now_ns();
  s->k = std::make_unique<uk::Kernel>(s->memfs);
  const std::uint64_t c1 = now_ns();
  s->memfs.set_cost_hook(s->k->charge_hook());
  s->net = std::make_unique<net::Net>(*s->k);
  uk::Proc p(*s->k, "populate");
  if (p.mkdir("/www") != 0) return nullptr;
  for (std::size_t d = 0; d < kDocs; ++d) {
    int fd = p.open(doc_path(d).c_str(), fs::kOWrOnly | fs::kOCreat);
    if (fd < 0) return nullptr;
    for (std::size_t off = 0; off < kDocBytes; off += kChunk) {
      if (p.write(fd, docs[d].data() + off, kChunk) !=
          static_cast<SysRet>(kChunk)) {
        return nullptr;
      }
    }
    if (p.close(fd) != 0) return nullptr;
  }
  const std::uint64_t t1 = now_ns();
  st.setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  st.ctor_s.push_back(static_cast<double>(c1 - c0) * 1e-9);
  return s;
}

struct Pair {
  std::uint16_t port = 0;
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};  ///< set by the client before its last close
};

struct ServerOut {
  explicit ServerOut(bool traced) : tracer(traced, kSampleOps) {}
  TaskCounts start, end;  ///< uk counters at ready / after the last full conn
  std::uint64_t cosy_ops_start = 0, cosy_ops_end = 0;
  std::uint64_t conns = 0;  ///< connections served in full
  std::uint64_t errors = 0;
  std::vector<std::string> what;
  Tracer tracer;

  void error(std::string w) {
    ++errors;
    if (what.size() < 4) what.push_back("server: " + std::move(w));
  }
};

struct ClientOut {
  explicit ClientOut(bool traced) : tracer(traced, kSampleOps) {}
  std::uint64_t attempted = 0, failed = 0;
  SliceHists lat;
  std::vector<std::string> what;
  Tracer tracer;

  void fail(std::string w) {
    ++failed;
    if (what.size() < 4) what.push_back("client: " + std::move(w));
  }
};

/// Classic serving of one request: every file byte crosses twice.
bool serve_plain(uk::Proc& srv, net::Net& net, int connfd,
                 const std::string& path, Tracer& tr) {
  fs::StatBuf st{};
  SysRet r;
  {
    Span sp(tr, Sp::kUkStat);
    r = srv.stat(path.c_str(), &st);
  }
  if (r != 0 || st.size != kDocBytes) return false;
  int fd;
  {
    Span sp(tr, Sp::kUkOpen);
    fd = srv.open(path.c_str(), fs::kORdOnly);
  }
  if (fd < 0) return false;
  std::byte buf[kChunk];
  bool ok = true;
  for (std::size_t off = 0; off < kDocBytes && ok; off += kChunk) {
    SysRet n;
    {
      Span sp(tr, Sp::kUkRead);
      n = srv.read(fd, buf, kChunk);
    }
    if (n != static_cast<SysRet>(kChunk)) {
      ok = false;
      break;
    }
    Span sp(tr, Sp::kNetSend);
    ok = net.sys_send(srv.process(), connfd, buf, kChunk) ==
         static_cast<SysRet>(kChunk);
  }
  Span sp(tr, Sp::kUkClose);
  return srv.close(fd) == 0 && ok;
}

/// The compound that serves a whole keep-alive connection (N1's
/// serve_cosy): the already-received first request's response, then
/// (recv, open, read, close, send) per remaining request. `expect` gets
/// each op's required result (kAnyFd: any fd >= 0).
constexpr SysRet kAnyFd = -1000000;
cosy::Compound build_compound(const std::string& path, int connfd,
                              std::vector<SysRet>* expect) {
  cosy::CompoundBuilder b;
  cosy::Arg pa = b.str(path);
  const auto fb = static_cast<std::int64_t>(kDocBytes);
  const auto off = static_cast<std::int64_t>(kRequestBytes);
  expect->clear();
  for (std::size_t r = 0; r < kRequestsPerConn; ++r) {
    if (r > 0) {
      b.read(cosy::imm(connfd), cosy::shared(0),
             cosy::imm(static_cast<std::int64_t>(kRequestBytes)));
      expect->push_back(static_cast<SysRet>(kRequestBytes));
    }
    int o = b.open(pa, cosy::imm(fs::kORdOnly), cosy::imm(0));
    b.read(cosy::result_of(o), cosy::shared(off), cosy::imm(fb));
    b.close(cosy::result_of(o));
    b.write(cosy::imm(connfd), cosy::shared(off), cosy::imm(fb));
    expect->insert(expect->end(), {kAnyFd, fb, 0, fb});
  }
  return b.finish();
}

void server_worker(WebStack& s, Pair& pair, bool cosy_mode, ServerOut& out) {
  uk::Proc srv(*s.k, "websrv");
  uk::Process& p = srv.process();
  net::Net& net = *s.net;
  Tracer& tr = out.tracer;
  cosy::CosyExtension ext(*s.k);
  cosy::SharedBuffer shared(kRequestBytes + kDocBytes);
  std::vector<SysRet> expect;

  const int lfd = static_cast<int>(net.sys_socket(p));
  const int ep = static_cast<int>(net.sys_epoll_create(p));
  if (lfd < 0 || ep < 0 || net.sys_bind(p, lfd, pair.port) != 0 ||
      net.sys_listen(p, lfd, 32) != 0 ||
      net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, lfd, net::kEpollIn) != 0) {
    out.error("listen setup");
    pair.stop = true;
    pair.ready = true;
    pair.ready.notify_all();
    return;
  }
  out.start = out.end = TaskCounts::of(srv.task());
  out.cosy_ops_start = out.cosy_ops_end = ext.stats().ops_executed;
  pair.ready = true;
  pair.ready.notify_all();

  // A connection is retired when the client closes it; the window
  // snapshot is taken after each connection served in full.
  auto retire = [&](int connfd, bool full) {
    srv.close(connfd);
    if (full) {
      ++out.conns;
      out.end = TaskCounts::of(srv.task());
      out.cosy_ops_end = ext.stats().ops_executed;
    }
  };

  // One event per wait: each wait then consumes exactly one readiness
  // (accept, request or close), so crossings per connection do not depend
  // on whether the client's next connect raced the previous close.
  std::map<int, std::size_t> served;  // plain: requests served per conn
  net::EpollEvent ev;
  char req[kRequestBytes];
  std::string path;
  std::uint64_t id = 0;
  bool running = true;
  while (running) {
    SysRet n = net.sys_epoll_wait(p, ep, &ev, 1, -1);
    if (n <= 0) {
      out.error("epoll_wait " + std::to_string(n));
      break;
    }
    const int fd = ev.fd;
    if (fd == lfd) {
      const int connfd = static_cast<int>(net.sys_accept(p, lfd));
      if (connfd < 0) {
        out.error("accept " + std::to_string(connfd));
        continue;
      }
      if (!cosy_mode) {
        net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, connfd, net::kEpollIn);
        served[connfd] = 0;
        continue;
      }
      // Cosy: one op per connection (first recv + the compound).
      tr.op_begin(0);
      std::memset(req, 0, sizeof req);
      SysRet r;
      {
        Span sp(tr, Sp::kNetRecv);
        r = net.sys_recv(p, connfd, req, kRequestBytes);
      }
      if (r <= 0 || !parse_request(req, &path, &id)) {
        tr.op_abort();  // the client's closing connect, not a request
        if (r > 0) out.error("bad request");
        retire(connfd, false);
        running = !pair.stop;
        continue;
      }
      tr.set_op(id);
      cosy::Compound c;
      {
        Span sp(tr, Sp::kBenchPrep);
        c = build_compound(path, connfd, &expect);
      }
      cosy::CosyResult res;
      {
        Span sp(tr, Sp::kCosyExecute);
        res = ext.execute(p, c, shared);
      }
      tr.op_end();
      // Every op ran (CompoundBuilder's closing kEnd included).
      bool ok = res.ret == 0 && res.ops_run == c.ops.size() &&
                res.results.size() >= expect.size();
      for (std::size_t j = 0; ok && j < expect.size(); ++j) {
        ok = expect[j] == kAnyFd ? res.results[j] >= 0
                                 : res.results[j] == expect[j];
      }
      if (!ok) out.error("compound ret " + std::to_string(res.ret));
      retire(connfd, ok);
      running = !pair.stop;
      continue;
    }
    // Plain data event: one op per request.
    tr.op_begin(0);
    std::memset(req, 0, sizeof req);
    SysRet r;
    {
      Span sp(tr, Sp::kNetRecv);
      r = net.sys_recv(p, fd, req, kRequestBytes);
    }
    bool ok = r > 0 && parse_request(req, &path, &id);
    if (ok) {
      tr.set_op(id);
      ok = serve_plain(srv, net, fd, path, tr);
      tr.op_end();
      if (ok) {
        ++served[fd];
        continue;
      }
      out.error("request " + path);
    } else {
      tr.op_abort();
      if (r != 0) out.error("recv " + std::to_string(r));
    }
    // Client closed (or the request failed: closing unblocks it).
    net.sys_epoll_ctl(p, ep, net::kEpollCtlDel, fd, 0);
    retire(fd, r == 0 && served[fd] == kRequestsPerConn);
    served.erase(fd);
    running = !pair.stop;
  }
  for (const auto& [fd, cnt] : served) srv.close(fd);
  srv.close(ep);
  srv.close(lfd);
}

void client_worker(WebStack& s, Pair& pair, std::size_t idx,
                   std::uint64_t seed, const Docs& docs,
                   const std::atomic<std::uint64_t>& start,
                   const std::atomic<std::uint64_t>& deadline,
                   std::atomic<int>& running, const std::atomic<bool>& release,
                   ClientOut& out) {
  uk::Proc cli(*s.k, "webcli");
  uk::Process& p = cli.process();
  net::Net& net = *s.net;
  Tracer& tr = out.tracer;
  base::Rng rng(seed * 0xD1B54A32D192ED03ull + idx + 1);
  std::vector<std::byte> buf(kDocBytes);
  char req[kRequestBytes];
  std::uint64_t seq = 0;

  deadline.wait(0);
  const std::uint64_t end = deadline.load();
  const std::uint64_t t_start = start.load();
  while (!pair.stop && now_ns() < end) {
    const int fd = static_cast<int>(net.sys_socket(p));
    if (fd < 0 || net.sys_connect(p, fd, pair.port) != 0) {
      out.fail("connect");
      if (fd >= 0) cli.close(fd);
      break;
    }
    const std::size_t d = rng.below(kDocs);
    for (std::size_t r = 0; r < kRequestsPerConn; ++r) {
      const std::uint64_t id = (static_cast<std::uint64_t>(idx + 1) << 40) | ++seq;
      format_request(req, d, id);
      tr.op_begin(id);
      const std::uint64_t t0 = now_ns();
      SysRet sent;
      {
        Span sp(tr, Sp::kNetSend);
        sent = net.sys_send(p, fd, req, kRequestBytes);
      }
      std::size_t got = 0;
      while (sent == static_cast<SysRet>(kRequestBytes) && got < kDocBytes) {
        SysRet n;
        {
          Span sp(tr, Sp::kNetRecv);
          n = net.sys_recv(p, fd, buf.data() + got, kDocBytes - got);
        }
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      const std::uint64_t t1 = now_ns();
      bool ok;
      {
        Span sp(tr, Sp::kBenchVerify);
        ok = got == kDocBytes &&
             std::memcmp(buf.data(), docs[d].data(), kDocBytes) == 0;
      }
      tr.op_end();
      ++out.attempted;
      out.lat.record(t1 - t_start, t1 - t0);
      if (!ok) {
        out.fail("response " + std::to_string(id) + ": " +
                 std::to_string(got) + " B" +
                 (got == kDocBytes ? ", wrong bytes" : ""));
        break;
      }
    }
    cli.close(fd);
  }

  // Done: once every client is, the server is told to stop and woken by
  // one last empty connection.
  running.fetch_sub(1);
  running.notify_all();
  release.wait(false);
  pair.stop = true;
  const int fd = static_cast<int>(net.sys_socket(p));
  if (fd >= 0) {
    (void)net.sys_connect(p, fd, pair.port);
    cli.close(fd);
  }
}

}  // namespace

SegmentResult run_web(const SegmentSpec& spec, bool cosy_mode, SetupTimes& st) {
  SegmentResult res;
  const Docs docs = make_docs(spec.opt->seed);
  std::unique_ptr<WebStack> s = setup(docs, st);
  if (s == nullptr) {
    res.attempted = 1;
    res.fail("setup: populating /www failed");
    return res;
  }

  std::array<Pair, kPairs> pairs;
  std::vector<std::unique_ptr<ServerOut>> souts;
  std::vector<std::unique_ptr<ClientOut>> couts;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> start{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<int> running{static_cast<int>(kPairs)};
  std::atomic<bool> release{false};
  for (std::size_t i = 0; i < kPairs; ++i) {
    // Ports are unique per segment of the run.
    pairs[i].port = static_cast<std::uint16_t>(20000 + 16 * spec.segment + i);
    souts.push_back(std::make_unique<ServerOut>(spec.traced));
    couts.push_back(std::make_unique<ClientOut>(spec.traced));
    threads.emplace_back(server_worker, std::ref(*s), std::ref(pairs[i]),
                         cosy_mode, std::ref(*souts[i]));
    threads.emplace_back(client_worker, std::ref(*s), std::ref(pairs[i]), i,
                         spec.opt->seed, std::cref(docs), std::cref(start), std::cref(deadline),
                         std::ref(running), std::cref(release),
                         std::ref(*couts[i]));
  }
  for (Pair& pr : pairs) pr.ready.wait(false);

  const KernelCounts kc0 = KernelCounts::of(*s->k);
  const std::uint64_t pk0 = s->net->stats().packets_sent;
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t e0 = ticks();
  start = t0;
  deadline = t0 + static_cast<std::uint64_t>(spec.seconds * 1e9);
  deadline.notify_all();
  // Sample CPU time at every slice start until the clients are done.
  res.cpu_marks.push_back(cpu0);
  for (std::uint64_t next = t0 + kSliceNs; running.load() != 0;) {
    const std::uint64_t now = now_ns();
    if (now >= next) {
      res.cpu_marks.push_back(cpu_seconds());
      next += kSliceNs;
    } else {
      const std::uint64_t nap = now < deadline ? next - now : 1000000;
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::min(nap, next - now)));
    }
  }
  const std::uint64_t t1 = now_ns();
  const double cpu1 = cpu_seconds();
  const KernelCounts kc1 = KernelCounts::of(*s->k);
  const std::uint64_t pk1 = s->net->stats().packets_sent;
  release = true;
  release.notify_all();
  for (std::thread& t : threads) t.join();

  res.elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
  res.cpu_s = cpu1 - cpu0;
  std::vector<const Tracer*> tracers;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const ServerOut& so = *souts[i];
    const ClientOut& co = *couts[i];
    res.attempted += co.attempted;
    res.failed += co.failed + so.errors;
    for (const auto& w : co.what) res.errors.push_back(w);
    for (const auto& w : so.what) res.errors.push_back(w);
    res.lat.merge(co.lat);
    (so.end - so.start).add_to(res.counts);
    res.counts.cosy_ops += so.cosy_ops_end - so.cosy_ops_start;
    res.counts.ops += so.conns * kRequestsPerConn;
    res.trace.merge(co.tracer.totals());
    res.trace.merge(so.tracer.totals());
    res.serve_trace.merge(so.tracer.totals());
    tracers.push_back(&co.tracer);
    tracers.push_back(&so.tracer);
  }
  kc1.add_delta_to(kc0, res.counts);
  res.counts.packets = pk1 - pk0;
  if (spec.traced) dump_spans(spec, tracers, e0);

  // The gateway's real cost, on a small kernel with the zero cost model
  // (the web kernel charges the default model's simulated units).
  s.reset();
  fs::MemFs probe_fs;
  uk::KernelConfig cfg;
  cfg.phys_frames = 256;
  cfg.boundary = uk::CostModel{0, 0, 0, 0};
  uk::Kernel probe(probe_fs, cfg);
  res.null_syscall_ns = null_syscall_ns(probe);
  return res;
}

}  // namespace uskbench
