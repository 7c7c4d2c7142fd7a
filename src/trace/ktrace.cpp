#include "trace/ktrace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "base/current.hpp"
#include "base/klog.hpp"

namespace usk::trace {

namespace {

/// The interned (subsys, name) pairs: a fixed array plus a published
/// count, so lookups by id take no lock while registration appends under
/// the mutex.
struct Names {
  std::mutex mu;
  std::array<std::pair<const char*, const char*>, kMaxSites> at{};
  std::atomic<std::uint16_t> count{0};
};

Names& names() {
  static Names n;
  return n;
}

}  // namespace

std::uint16_t register_site(const char* subsys, const char* name) {
  Names& t = names();
  std::lock_guard lk(t.mu);
  const std::uint16_t n = t.count.load(std::memory_order_relaxed);
  for (std::uint16_t i = 0; i < n; ++i) {
    if (std::strcmp(t.at[i].first, subsys) == 0 &&
        std::strcmp(t.at[i].second, name) == 0) {
      return i;
    }
  }
  if (n >= kMaxSites) return kMaxSites - 1;  // overflow bucket
  t.at[n] = {subsys, name};
  t.count.store(static_cast<std::uint16_t>(n + 1), std::memory_order_release);
  return n;
}

const char* site_subsys(std::uint16_t site) {
  Names& t = names();
  return site < t.count.load(std::memory_order_acquire) ? t.at[site].first
                                                        : "?";
}

const char* site_name(std::uint16_t site) {
  Names& t = names();
  return site < t.count.load(std::memory_order_acquire) ? t.at[site].second
                                                        : "?";
}

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Ktrace::~Ktrace() {
  set_enabled(false);
  for (std::atomic<Histogram*>& h : hists_) delete h.load();
}

void Ktrace::set_enabled(bool on) {
  if (enabled_.exchange(on) != on) {
    detail::g_armed_ktraces.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
  }
}

void Ktrace::configure(std::size_t per_cpu_capacity) {
  // Round up to a power of two (ring requirement).
  std::size_t cap = 1;
  while (cap < per_cpu_capacity) cap <<= 1;
  ring_capacity_.store(cap, std::memory_order_relaxed);
}

std::vector<SiteInfo> Ktrace::sites() const {
  std::vector<SiteInfo> out;
  for (std::uint16_t i = 0; i < kMaxSites; ++i) {
    const std::uint64_t hits = hits_[i].load(std::memory_order_relaxed);
    if (hits != 0) out.push_back(SiteInfo{site_subsys(i), site_name(i), hits});
  }
  return out;
}

void Ktrace::emit(std::uint16_t site, std::uint64_t a0, std::uint64_t a1) {
  TraceEvent e;
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.ts_ns = now_ns();
  e.pid = base::current().pid;
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
  hits_[site % kMaxSites].fetch_add(1, std::memory_order_relaxed);
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
  for (std::atomic<std::uint64_t>& h : hits_) {
    h.store(0, std::memory_order_relaxed);
  }
  for (std::atomic<Histogram*>& h : hists_) {
    if (Histogram* p = h.load(std::memory_order_acquire)) p->reset();
  }
}

Histogram& Ktrace::op_hist(std::uint16_t id) {
  std::atomic<Histogram*>& slot = hists_[id % kMaxSites];
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h != nullptr) return *h;
  // First use: racing threads each build one; the loser frees its own.
  auto fresh = std::make_unique<Histogram>();
  if (slot.compare_exchange_strong(h, fresh.get(),
                                   std::memory_order_acq_rel)) {
    return *fresh.release();
  }
  return *h;
}

std::vector<OpHistInfo> Ktrace::op_hists() const {
  std::vector<OpHistInfo> out;
  for (std::uint16_t i = 0; i < kMaxSites; ++i) {
    if (const Histogram* h = hists_[i].load(std::memory_order_acquire)) {
      out.push_back(OpHistInfo{site_subsys(i), site_name(i), h->snapshot()});
    }
  }
  return out;
}

}  // namespace usk::trace
