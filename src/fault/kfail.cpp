#include "fault/kfail.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "base/appendf.hpp"
#include "base/klog.hpp"
#include "trace/tracepoint.hpp"

namespace usk::fault {

namespace {

struct SiteDesc {
  const char* name;
  Errno err;
};

constexpr SiteDesc kSiteDesc[kNumSites] = {
    {"kmalloc", Errno::kENOMEM},      {"vmalloc", Errno::kENOMEM},
    {"disk.read", Errno::kEIO},       {"disk.write", Errno::kEIO},
    {"disk.torn", Errno::kEIO},       {"disk.latency", Errno::kOk},
    {"copy_in", Errno::kEFAULT},      {"copy_out", Errno::kEFAULT},
    {"net.accept", Errno::kECONNRESET},
    {"net.recv", Errno::kECONNRESET}, {"net.send", Errno::kECONNRESET},
    {"cosy", Errno::kEINTR},          {"cosy_fuel", Errno::kEDQUOT},
    {"sup.probe", Errno::kEIO},       {"sup.fallback", Errno::kEIO},
    {"ring.sqe_corrupt", Errno::kEFAULT}, {"ring.cqe_drop", Errno::kEIO},
    {"store.short_write", Errno::kEIO},
    {"store.torn_commit_header", Errno::kEIO},
    {"store.fsync_fail", Errno::kEIO},
    {"dl.clock_skew", Errno::kETIMEDOUT},
    {"dl.spurious_wake", Errno::kEAGAIN},
};

/// SplitMix64: the per-check decision hash. Statistically uniform, cheap,
/// and a pure function of its input so schedules replay from the seed.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// p in [0,1] -> threshold on a uniform u64 draw.
std::uint64_t p_to_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ull;
  return static_cast<std::uint64_t>(p * 18446744073709551616.0);
}

Errno errno_from_name(std::string_view n) {
  struct Pair {
    const char* name;
    Errno e;
  };
  static constexpr Pair kMap[] = {
      {"EPERM", Errno::kEPERM},   {"ENOENT", Errno::kENOENT},
      {"EINTR", Errno::kEINTR},   {"EIO", Errno::kEIO},
      {"EBADF", Errno::kEBADF},   {"EAGAIN", Errno::kEAGAIN},
      {"ENOMEM", Errno::kENOMEM}, {"EACCES", Errno::kEACCES},
      {"EFAULT", Errno::kEFAULT}, {"EBUSY", Errno::kEBUSY},
      {"ENOSPC", Errno::kENOSPC}, {"EPIPE", Errno::kEPIPE},
      {"ECONNRESET", Errno::kECONNRESET},
      {"EDQUOT", Errno::kEDQUOT}, {"ETIME", Errno::kETIME},
      {"ETIMEDOUT", Errno::kETIMEDOUT},
      {"ECANCELED", Errno::kECANCELED},
  };
  for (const Pair& p : kMap) {
    if (n == p.name) return p.e;
  }
  return Errno::kOk;
}

}  // namespace

const char* site_name(Site s) {
  auto i = static_cast<std::size_t>(s);
  return i < kNumSites ? kSiteDesc[i].name : "?";
}

Errno site_default_errno(Site s) {
  auto i = static_cast<std::size_t>(s);
  return i < kNumSites ? kSiteDesc[i].err : Errno::kEIO;
}

Kfail::Kfail() {
  // Environment arming: lets `ctest -L faults` (and any user shell) run
  // unmodified binaries under injection, on every injector they make.
  if (const char* spec = std::getenv("USK_FAIL_SPEC")) {
    if (Result<void> r = apply_spec(spec); !r.ok()) {
      base::klogf(base::LogLevel::kErr, "kfail: bad USK_FAIL_SPEC '%s' (%.*s)",
                  spec, static_cast<int>(errno_name(r.error()).size()),
                  errno_name(r.error()).data());
    }
  }
}

Kfail::~Kfail() { disarm_all(); }

Outcome Kfail::check(Site s) {
  SiteState& st = sites_[static_cast<std::size_t>(s)];
  if (!st.armed.load(std::memory_order_relaxed)) return Outcome{};
  st.checks.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = st.counter.fetch_add(1, std::memory_order_relaxed) + 1;

  bool hit = false;
  const std::uint64_t nth = st.nth.load(std::memory_order_relaxed);
  if (nth != 0 && n == nth) hit = true;
  if (!hit) {
    const std::uint64_t thr = st.threshold.load(std::memory_order_relaxed);
    if (thr != 0) {
      const std::uint64_t draw = splitmix64(
          seed_.load(std::memory_order_relaxed) ^
          (static_cast<std::uint64_t>(s) << 56) ^ n);
      // thr == ~0 means p=1: always inject (a < comparison would miss the
      // single draw equal to ~0).
      hit = thr == ~0ull || draw < thr;
    }
  }
  if (!hit) return Outcome{};

  // Budget: injections remaining (-1 = unlimited). Decrement on use.
  std::int64_t b = st.budget.load(std::memory_order_relaxed);
  while (b >= 0) {
    if (b == 0) return Outcome{};
    if (st.budget.compare_exchange_weak(b, b - 1,
                                        std::memory_order_relaxed)) {
      break;
    }
  }

  Outcome out;
  out.err = static_cast<Errno>(st.err.load(std::memory_order_relaxed));
  if (out.err == Errno::kOk) out.err = site_default_errno(s);
  if (st.transient.load(std::memory_order_relaxed)) {
    out.transient = true;
    st.transients.fetch_add(1, std::memory_order_relaxed);
  } else {
    out.fail = true;
    st.injected.fetch_add(1, std::memory_order_relaxed);
  }
  USK_TRACEPOINT("fault", "inject", static_cast<std::uint64_t>(s), n);
  return out;
}

void Kfail::arm(Site s, const SiteConfig& cfg) {
  std::lock_guard lk(mu_);
  SiteState& st = sites_[static_cast<std::size_t>(s)];
  st.threshold.store(p_to_threshold(cfg.p), std::memory_order_relaxed);
  st.nth.store(cfg.nth, std::memory_order_relaxed);
  st.budget.store(cfg.budget, std::memory_order_relaxed);
  st.transient.store(cfg.transient, std::memory_order_relaxed);
  st.err.store(static_cast<std::int32_t>(cfg.err), std::memory_order_relaxed);
  st.counter.store(0, std::memory_order_relaxed);
  if (!st.armed.exchange(true, std::memory_order_relaxed) &&
      armed_sites_.fetch_add(1, std::memory_order_relaxed) == 0) {
    detail::g_armed_kfails.fetch_add(1, std::memory_order_relaxed);
  }
}

void Kfail::disarm(Site s) {
  std::lock_guard lk(mu_);
  SiteState& st = sites_[static_cast<std::size_t>(s)];
  if (st.armed.exchange(false, std::memory_order_relaxed) &&
      armed_sites_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    detail::g_armed_kfails.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Kfail::disarm_all() {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    disarm(static_cast<Site>(i));
  }
}

bool Kfail::site_armed(Site s) const {
  return sites_[static_cast<std::size_t>(s)].armed.load(
      std::memory_order_relaxed);
}

void Kfail::set_seed(std::uint64_t seed) {
  std::lock_guard lk(mu_);
  seed_.store(seed, std::memory_order_relaxed);
  for (SiteState& st : sites_) {
    st.counter.store(0, std::memory_order_relaxed);
  }
}

Result<void> Kfail::apply_spec(std::string_view spec) {
  // Parse into staged (site, config) pairs first so a malformed clause
  // leaves the current arming untouched.
  struct Staged {
    Site site;
    SiteConfig cfg;
  };
  std::vector<Staged> staged;
  bool want_disarm_all = false;
  std::uint64_t new_seed = 0;
  bool have_seed = false;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim spaces.
    while (!clause.empty() && clause.front() == ' ') clause.remove_prefix(1);
    while (!clause.empty() && clause.back() == ' ') clause.remove_suffix(1);
    if (clause.empty()) {
      if (pos > spec.size()) break;
      continue;
    }

    if (clause == "off") {
      want_disarm_all = true;
      continue;
    }
    if (clause.substr(0, 5) == "seed=") {
      char* end = nullptr;
      std::string v(clause.substr(5));
      new_seed = std::strtoull(v.c_str(), &end, 0);
      if (end == nullptr || *end != '\0') return Errno::kEINVAL;
      have_seed = true;
      continue;
    }

    // <site>:<opt>[:<opt>...]
    std::size_t colon = clause.find(':');
    std::string_view name =
        colon == std::string_view::npos ? clause : clause.substr(0, colon);
    SiteConfig cfg;
    std::string_view rest =
        colon == std::string_view::npos ? std::string_view{}
                                        : clause.substr(colon + 1);
    while (!rest.empty()) {
      std::size_t c2 = rest.find(':');
      std::string_view opt =
          c2 == std::string_view::npos ? rest : rest.substr(0, c2);
      rest = c2 == std::string_view::npos ? std::string_view{}
                                          : rest.substr(c2 + 1);
      if (opt == "transient") {
        cfg.transient = true;
      } else if (opt.substr(0, 2) == "p=") {
        char* end = nullptr;
        std::string v(opt.substr(2));
        cfg.p = std::strtod(v.c_str(), &end);
        if (end == nullptr || *end != '\0' || cfg.p < 0.0 || cfg.p > 1.0) {
          return Errno::kEINVAL;
        }
      } else if (opt.substr(0, 4) == "nth=") {
        char* end = nullptr;
        std::string v(opt.substr(4));
        cfg.nth = std::strtoull(v.c_str(), &end, 0);
        if (end == nullptr || *end != '\0') return Errno::kEINVAL;
      } else if (opt.substr(0, 7) == "budget=") {
        char* end = nullptr;
        std::string v(opt.substr(7));
        cfg.budget = std::strtoll(v.c_str(), &end, 0);
        if (end == nullptr || *end != '\0') return Errno::kEINVAL;
      } else if (opt.substr(0, 6) == "errno=") {
        cfg.err = errno_from_name(opt.substr(6));
        if (cfg.err == Errno::kOk) return Errno::kEINVAL;
      } else {
        return Errno::kEINVAL;
      }
    }

    // Site name, `prefix.*`, or `*`.
    bool matched = false;
    for (std::size_t i = 0; i < kNumSites; ++i) {
      std::string_view sn = kSiteDesc[i].name;
      bool match = name == "*" || sn == name;
      if (!match && name.size() >= 2 && name.back() == '*' &&
          name[name.size() - 2] == '.') {
        match = sn.substr(0, name.size() - 1) == name.substr(0, name.size() - 1);
      }
      if (match) {
        staged.push_back(Staged{static_cast<Site>(i), cfg});
        matched = true;
      }
    }
    if (!matched) return Errno::kEINVAL;
  }

  if (want_disarm_all) disarm_all();
  if (have_seed) set_seed(new_seed);
  for (const Staged& s : staged) arm(s.site, s.cfg);
  return Errno::kOk;
}

SiteStats Kfail::stats(Site s) const {
  const SiteState& st = sites_[static_cast<std::size_t>(s)];
  SiteStats out;
  out.checks = st.checks.load(std::memory_order_relaxed);
  out.injected = st.injected.load(std::memory_order_relaxed);
  out.transients = st.transients.load(std::memory_order_relaxed);
  return out;
}

void Kfail::reset_stats() {
  for (SiteState& st : sites_) {
    st.checks.store(0, std::memory_order_relaxed);
    st.injected.store(0, std::memory_order_relaxed);
    st.transients.store(0, std::memory_order_relaxed);
  }
}

std::string Kfail::format_stats() const {
  std::string out;
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const SiteState& st = sites_[i];
    base::appendf(
        out,
        "%-12s armed %d checks %" PRIu64 " injected %" PRIu64
        " transient %" PRIu64 "\n",
        kSiteDesc[i].name, st.armed.load(std::memory_order_relaxed) ? 1 : 0,
        st.checks.load(std::memory_order_relaxed),
        st.injected.load(std::memory_order_relaxed),
        st.transients.load(std::memory_order_relaxed));
  }
  return out;
}

std::string Kfail::format_spec() const {
  std::string out = "seed=" + std::to_string(seed());
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const SiteState& st = sites_[i];
    if (!st.armed.load(std::memory_order_relaxed)) continue;
    const double p =
        static_cast<double>(st.threshold.load(std::memory_order_relaxed)) /
        18446744073709551616.0;
    base::appendf(out, ",%s:p=%g", kSiteDesc[i].name,
                  st.threshold.load(std::memory_order_relaxed) == ~0ull ? 1.0
                                                                        : p);
    if (std::uint64_t nth = st.nth.load(std::memory_order_relaxed)) {
      out += ":nth=" + std::to_string(nth);
    }
    if (std::int64_t b = st.budget.load(std::memory_order_relaxed); b >= 0) {
      out += ":budget=" + std::to_string(b);
    }
    if (st.transient.load(std::memory_order_relaxed)) out += ":transient";
  }
  out += "\n";
  return out;
}

}  // namespace usk::fault
