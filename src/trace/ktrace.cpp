#include "trace/ktrace.hpp"

#include <algorithm>
#include <cstring>

#include "base/klog.hpp"

namespace usk::trace {

Ktrace& Ktrace::instance() {
  static Ktrace t;
  return t;
}

void Ktrace::configure(std::size_t per_cpu_capacity) {
  // Round up to a power of two (ring requirement).
  std::size_t cap = 1;
  while (cap < per_cpu_capacity) cap <<= 1;
  ring_capacity_.store(cap, std::memory_order_relaxed);
}

std::uint16_t Ktrace::register_site(const char* subsys, const char* name) {
  std::lock_guard lk(reg_mu_);
  std::uint16_t n = site_count_.load(std::memory_order_relaxed);
  for (std::uint16_t i = 0; i < n; ++i) {
    if (std::strcmp(sites_[i].subsys, subsys) == 0 &&
        std::strcmp(sites_[i].name, name) == 0) {
      return i;
    }
  }
  if (n >= kMaxSites) return kMaxSites - 1;  // overflow bucket
  sites_[n].subsys = subsys;
  sites_[n].name = name;
  site_count_.store(static_cast<std::uint16_t>(n + 1),
                    std::memory_order_release);
  return n;
}

std::vector<SiteInfo> Ktrace::sites() const {
  std::uint16_t n = site_count_.load(std::memory_order_acquire);
  std::vector<SiteInfo> out;
  out.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    out.push_back(SiteInfo{sites_[i].subsys, sites_[i].name,
                           sites_[i].hits.load(std::memory_order_relaxed)});
  }
  return out;
}

const char* Ktrace::site_subsys(std::uint16_t site) const {
  return site < site_count_.load(std::memory_order_acquire)
             ? sites_[site].subsys
             : "?";
}

const char* Ktrace::site_name(std::uint16_t site) const {
  return site < site_count_.load(std::memory_order_acquire)
             ? sites_[site].name
             : "?";
}

void Ktrace::emit(std::uint16_t site, std::uint64_t a0, std::uint64_t a1) {
  TraceEvent e;
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.ts_ns = now_ns();
  e.pid = detail::g_current_pid;
  e.site = site;
  e.cpu = static_cast<std::uint16_t>(base::current_cpu());
  e.arg0 = a0;
  e.arg1 = a1;
  CpuBuf& buf = cpus_.local();
  if (!buf.ring) {
    buf.ring = std::make_unique<Ring>(
        ring_capacity_.load(std::memory_order_relaxed));
  }
  ++buf.emitted;
  if (!buf.ring->push(e) && !buf.drop_warned) {
    // Full ring: the event is dropped (counted by the ring). Losing
    // events silently turns every downstream analysis subtly wrong, so
    // the FIRST drop on each CPU warns; /proc/trace/stats carries the
    // running counts from then on.
    buf.drop_warned = true;
    USK_KLOG_RATELIMIT_NAMED(
        "trace.drop", base::LogLevel::kWarn, 8u,
        "ktrace: cpu %u dropping events (ring full, capacity %zu); "
        "drain more often or configure() a larger ring",
        static_cast<unsigned>(e.cpu), buf.ring->capacity());
  }
  if (site < site_count_.load(std::memory_order_acquire)) {
    sites_[site].hits.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> Ktrace::drain() {
  std::vector<TraceEvent> out;
  cpus_.for_each([&](CpuBuf& buf) {
    if (!buf.ring) return;
    TraceEvent e;
    while (buf.ring->pop(&e)) out.push_back(e);
  });
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t Ktrace::emitted() const {
  std::uint64_t sum = 0;
  cpus_.for_each([&](const CpuBuf& buf) { sum += buf.emitted; });
  return sum;
}

std::uint64_t Ktrace::dropped() const {
  std::uint64_t sum = 0;
  cpus_.for_each([&](const CpuBuf& buf) {
    if (buf.ring) sum += buf.ring->dropped();
  });
  return sum;
}

std::vector<Ktrace::CpuStats> Ktrace::per_cpu_stats() const {
  std::vector<CpuStats> out;
  for (std::size_t cpu = 0; cpu < base::PerCpu<CpuBuf>::size(); ++cpu) {
    const CpuBuf& buf = cpus_.slot(cpu);
    if (buf.emitted == 0 && !buf.ring) continue;
    CpuStats s;
    s.cpu = cpu;
    s.emitted = buf.emitted;
    s.dropped = buf.ring ? buf.ring->dropped() : 0;
    s.capacity = buf.ring ? buf.ring->capacity() : 0;
    out.push_back(s);
  }
  return out;
}

void Ktrace::reset() {
  cpus_.for_each([&](CpuBuf& buf) {
    // Recreate rather than drain: also zeroes the ring's drop counters.
    buf.ring.reset();
    buf.emitted = 0;
    buf.drop_warned = false;
  });
  seq_.store(0, std::memory_order_relaxed);
  std::uint16_t n = site_count_.load(std::memory_order_acquire);
  for (std::uint16_t i = 0; i < n; ++i) {
    sites_[i].hits.store(0, std::memory_order_relaxed);
  }
  std::uint16_t m = op_hist_count_.load(std::memory_order_acquire);
  for (std::uint16_t i = 0; i < m; ++i) op_hists_[i].hist->reset();
}

Histogram& Ktrace::op_hist(const char* subsys, const char* name) {
  std::lock_guard lk(reg_mu_);
  std::uint16_t n = op_hist_count_.load(std::memory_order_relaxed);
  for (std::uint16_t i = 0; i < n; ++i) {
    if (std::strcmp(op_hists_[i].subsys, subsys) == 0 &&
        std::strcmp(op_hists_[i].name, name) == 0) {
      return *op_hists_[i].hist;
    }
  }
  std::uint16_t slot = n < kMaxOpHists ? n : kMaxOpHists - 1;
  if (n < kMaxOpHists) {
    op_hists_[slot].subsys = subsys;
    op_hists_[slot].name = name;
    op_hists_[slot].hist = std::make_unique<Histogram>();
    op_hist_count_.store(static_cast<std::uint16_t>(n + 1),
                         std::memory_order_release);
  }
  return *op_hists_[slot].hist;
}

std::vector<OpHistInfo> Ktrace::op_hists() const {
  std::uint16_t n = op_hist_count_.load(std::memory_order_acquire);
  std::vector<OpHistInfo> out;
  out.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    out.push_back(OpHistInfo{op_hists_[i].subsys, op_hists_[i].name,
                             op_hists_[i].hist->snapshot()});
  }
  return out;
}

}  // namespace usk::trace
