#include "trace/span.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "base/appendf.hpp"

namespace usk::trace {

namespace {

/// Innermost open span on this thread (the propagation mechanism: every
/// vehicle runs a request's work on the accepting thread, so the stack
/// IS the causal chain).
thread_local SpanScope* tl_span = nullptr;

}  // namespace

const char* span_vehicle_name(SpanVehicle v) {
  switch (v) {
    case SpanVehicle::kNone: return "none";
    case SpanVehicle::kPlain: return "plain";
    case SpanVehicle::kConsolidated: return "consolidated";
    case SpanVehicle::kCosy: return "cosy";
    case SpanVehicle::kRing: return "ring";
    case SpanVehicle::kFallback: return "fallback";
    case SpanVehicle::kProbe: return "probe";
  }
  return "?";
}

Kspan& Kspan::instance() {
  static Kspan s;
  return s;
}

Kspan::Kspan() {
  // Env arming lets the `obs` ctest soak run whole suites span-enabled
  // without touching each test (the USK_FAIL_SPEC / USK_SUP_SPEC idiom).
  if (const char* v = std::getenv("USK_SPAN")) {
    if (v[0] == '1' && v[1] == '\0') enable();
  }
}

void Kspan::publish(const SpanRecord& r) {
  finished_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lk(mu_);
  store_.push_back(r);
  if (store_.size() > kMaxFinished) {
    store_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<SpanRecord> Kspan::drain() {
  std::lock_guard lk(mu_);
  std::vector<SpanRecord> out(store_.begin(), store_.end());
  store_.clear();
  return out;
}

std::vector<SpanRecord> Kspan::snapshot() const {
  std::lock_guard lk(mu_);
  return {store_.begin(), store_.end()};
}

SpanStats Kspan::stats() const {
  SpanStats s;
  s.started = started_.load(std::memory_order_relaxed);
  s.finished = finished_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  const std::int64_t act = active_.load(std::memory_order_relaxed);
  s.active = act > 0 ? static_cast<std::uint64_t>(act) : 0;
  return s;
}

void Kspan::reset() {
  std::lock_guard lk(mu_);
  store_.clear();
  id_.store(0, std::memory_order_relaxed);
  started_.store(0, std::memory_order_relaxed);
  finished_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  active_.store(0, std::memory_order_relaxed);
}

SpanScope::SpanScope(const char* name, SpanVehicle vehicle,
                     std::int32_t ext) {
  if (!span_enabled()) [[likely]] {
    return;  // inert: not on the stack, nothing allocated
  }
  Kspan& ks = kspan();
  rec_.id = ks.next_id();
  rec_.parent = tl_span != nullptr ? tl_span->rec_.id : 0;
  rec_.pid = detail::g_current_pid;
  rec_.ext = ext;
  rec_.vehicle = vehicle;
  rec_.name = name;
  rec_.start_ns = ktrace().now_ns();
  ks.started_.fetch_add(1, std::memory_order_relaxed);
  ks.active_.fetch_add(1, std::memory_order_relaxed);
  prev_ = tl_span;
  tl_span = this;
  armed_ = true;
}

SpanScope::~SpanScope() {
  if (!armed_) return;
  tl_span = prev_;
  if (watch_ != nullptr && *watch_ < 0) rec_.status = *watch_;
  rec_.end_ns = ktrace().now_ns();
  Kspan& ks = kspan();
  ks.active_.fetch_sub(1, std::memory_order_relaxed);
  ks.publish(rec_);
}

SpanScope* SpanScope::current() { return tl_span; }

std::uint64_t SpanScope::current_id() {
  return tl_span != nullptr ? tl_span->rec_.id : 0;
}

std::string export_chrome_spans(const std::vector<SpanRecord>& spans) {
  std::string out = "[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ",";
    first = false;
    const double ts_us = static_cast<double>(s.start_ns) / 1000.0;
    const double dur_us =
        static_cast<double>(s.end_ns >= s.start_ns ? s.end_ns - s.start_ns
                                                   : 0) /
        1000.0;
    base::appendf(
        out,
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"span\":%" PRIu64
        ",\"parent\":%" PRIu64 ",\"ext\":%d,\"crossings\":%" PRIu64
        ",\"bytes_in\":%" PRIu64 ",\"bytes_out\":%" PRIu64
        ",\"kernel_units\":%" PRIu64 ",\"status\":%" PRId64 "}}",
        s.name, span_vehicle_name(s.vehicle), ts_us, dur_us, s.pid, s.pid,
        s.id, s.parent, s.ext, s.crossings, s.bytes_in, s.bytes_out,
        s.kernel_units, s.status);
    if (s.parent != 0) {
      // Flow pair: an "s" (start) at the parent's timeline position and
      // an "f" (finish) at the child's start, keyed by the child id --
      // Perfetto draws the arrow parent -> child.
      base::appendf(out,
                    ",{\"name\":\"span\",\"cat\":\"flow\",\"ph\":\"s\","
                    "\"id\":%" PRIu64
                    ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}"
                    ",{\"name\":\"span\",\"cat\":\"flow\",\"ph\":\"f\","
                    "\"bp\":\"e\",\"id\":%" PRIu64
                    ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    s.id, ts_us, s.pid, s.pid, s.id, ts_us, s.pid, s.pid);
    }
  }
  out += "]";
  return out;
}

}  // namespace usk::trace
