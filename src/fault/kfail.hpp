// kfail: deterministic, seed-reproducible fault injection.
//
// Every resource-acquiring layer of the simulated kernel carries a fault
// point -- kmalloc/vmalloc (ENOMEM), the disk (EIO, latency spikes, torn
// journal writes), the user/kernel copy routines (EFAULT), the network
// (ECONNRESET/EAGAIN storms), and the Cosy executor (abort between ops).
// A disarmed fault point costs ONE relaxed atomic load and a predicted
// branch, the same discipline as USK_TRACEPOINT, so instrumented hot
// paths measure identically with injection compiled in.
//
// Determinism: each site keeps a check counter; the injection decision for
// check #n is a pure function of (global seed, site, n), so a failing
// schedule replays exactly from the same seed -- the failure analogue of
// the workload generators' seeded RNGs.
//
// Faults come in two severities:
//   * hard (`fail`): the site returns its errno to the caller, exercising
//     the real error path (test_fault's p=1 sweeps assert errno + no
//     leaked fds/inodes/pages/locks).
//   * transient: the site records a simulated first-attempt failure,
//     charges its recovery cost (allocator direct-reclaim, disk retry)
//     and then succeeds. This is the soak mode the `faults` ctest label
//     uses to re-run the whole tier-1 suite at p=0.01 with zero
//     user-visible failures while still driving the injection plumbing.
//
// Control: programmatic (arm/disarm), the USK_FAIL_SPEC environment
// variable (read once at process start), and /proc/fail/** write files
// (uk/kproc.cpp). Spec grammar, clauses comma-separated:
//
//   seed=<u64>                     reseed the decision function
//   off                            disarm every site
//   <site>:<opt>[:<opt>...]       arm one site (or <prefix>.* / *)
//     opts: p=<float 0..1>  per-check injection probability
//           nth=<N>         additionally fail exactly check #N (1-based)
//           budget=<M>      stop after M injections (default unlimited)
//           errno=<NAME>    override the site's default errno (e.g. EIO)
//           transient       recoverable mode (see above)
//
//   USK_FAIL_SPEC="seed=7,kmalloc:p=0.01:transient,disk.*:p=0.005:transient"
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "base/errno.hpp"

namespace usk::fault {

/// The injection-site inventory. Fixed and small so per-site state is an
/// array indexed without hashing on the (armed) slow path.
enum class Site : std::uint8_t {
  kKmalloc = 0,   ///< mm::Kmalloc::alloc        -> ENOMEM
  kVmalloc,       ///< mm::Vmalloc::alloc        -> ENOMEM
  kDiskRead,      ///< blockdev::Disk::read      -> EIO
  kDiskWrite,     ///< blockdev::Disk::write     -> EIO
  kDiskTorn,      ///< store journal unit payload write -> torn on media
  kDiskLatency,   ///< blockdev::Disk access     -> seek-storm latency spike
  kCopyIn,        ///< uk::Boundary::copy_from_user -> EFAULT
  kCopyOut,       ///< uk::Boundary::copy_to_user   -> EFAULT
  kNetAccept,     ///< net accept path           -> ECONNRESET
  kNetRecv,       ///< net recv path             -> ECONNRESET
  kNetSend,       ///< net send path             -> ECONNRESET (or EAGAIN)
  kCosyOp,        ///< cosy executor, between ops -> compound abort (EINTR)
  kCosyFuel,      ///< cosy executor, compound entry -> VM fuel exhausted (EDQUOT)
  kSupProbe,      ///< supervisor re-admission probe -> probe failure
  kSupFallback,   ///< supervisor classic-fallback path -> fallback error
  kRingSqeCorrupt, ///< ring SQE read from shared memory is corrupt -> EFAULT
  kRingCqeDrop,    ///< ring completion lost before posting -> EIO
  kStoreShortWrite,  ///< store::BackingImage::write_block -> short write (EIO)
  kStoreTornHeader,  ///< store journal commit-header write -> torn on media
  kStoreFsyncFail,   ///< store::BackingImage::flush (fsync) -> EIO
  kDlClockSkew,      ///< kdl deadline evaluation reads a skewed clock -> spurious ETIMEDOUT
  kDlSpuriousWake,   ///< kdl timed park wakes without event/expiry -> loop re-checks
  kMaxSite
};

inline constexpr std::size_t kNumSites =
    static_cast<std::size_t>(Site::kMaxSite);

const char* site_name(Site s);
/// The errno a hard injection at `s` surfaces by default.
Errno site_default_errno(Site s);

/// Result of a fault-point check. `fail` = hard failure: return `err` to
/// the caller. `transient` = simulated recovered failure: charge the
/// site's recovery cost and proceed.
struct Outcome {
  bool fail = false;
  bool transient = false;
  Errno err = Errno::kOk;
  explicit operator bool() const { return fail; }
};

/// Per-site arming parameters (see the spec grammar above).
struct SiteConfig {
  double p = 0.0;              ///< per-check injection probability
  std::uint64_t nth = 0;       ///< fail exactly check #nth (0 = off)
  std::int64_t budget = -1;    ///< max injections (-1 = unlimited)
  bool transient = false;      ///< recoverable mode
  Errno err = Errno::kOk;      ///< kOk = use site_default_errno
};

struct SiteStats {
  std::uint64_t checks = 0;      ///< fault-point evaluations while armed
  std::uint64_t injected = 0;    ///< hard failures injected
  std::uint64_t transients = 0;  ///< recovered (transient) injections
};

namespace detail {
/// THE disarmed-cost hot path: count of armed sites, read relaxed.
inline std::atomic<int> g_armed{0};
}  // namespace detail

[[nodiscard]] inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

class Kfail {
 public:
  /// The process-wide injector (one per simulated machine, like ktrace).
  static Kfail& instance();

  /// Slow path behind USK_FAIL_POINT: decide check #n for `s`.
  Outcome check(Site s);

  // --- control --------------------------------------------------------------
  void arm(Site s, const SiteConfig& cfg);
  void disarm(Site s);
  void disarm_all();
  [[nodiscard]] bool site_armed(Site s) const;

  /// Reseed the decision function and restart every site's check counter,
  /// so a schedule replays identically from the same seed.
  void set_seed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t seed() const {
    return seed_.load(std::memory_order_relaxed);
  }

  /// Parse and apply a spec string (grammar in the header comment).
  Result<void> apply_spec(std::string_view spec);

  // --- observation -----------------------------------------------------------
  [[nodiscard]] SiteStats stats(Site s) const;
  void reset_stats();
  /// /proc/fail/stats rendering: one line per site.
  [[nodiscard]] std::string format_stats() const;
  /// /proc/fail/spec rendering: the currently armed configuration.
  [[nodiscard]] std::string format_spec() const;

 private:
  Kfail();

  struct SiteState {
    // Configuration, written under mu_ and read relaxed by check().
    std::atomic<bool> armed{false};
    std::atomic<std::uint64_t> threshold{0};  ///< p scaled to 2^64
    std::atomic<std::uint64_t> nth{0};
    std::atomic<std::int64_t> budget{-1};     ///< -1 = unlimited
    std::atomic<bool> transient{false};
    std::atomic<std::int32_t> err{0};
    // Live counters.
    std::atomic<std::uint64_t> counter{0};    ///< check sequence number
    std::atomic<std::uint64_t> checks{0};
    std::atomic<std::uint64_t> injected{0};
    std::atomic<std::uint64_t> transients{0};
  };

  SiteState sites_[kNumSites];
  std::atomic<std::uint64_t> seed_{0x9E3779B97F4A7C15ull};
  mutable std::mutex mu_;  ///< serialises arm/disarm/apply_spec
};

[[nodiscard]] inline Kfail& kfail() { return Kfail::instance(); }

}  // namespace usk::fault

/// A fault point: one relaxed load when nothing is armed. Use as
///   if (auto f = USK_FAIL_POINT(fault::Site::kKmalloc); f.fail)
///     return ...error path using f.err...;
///   // f.transient: simulated recovered failure -- charge retry cost.
#define USK_FAIL_POINT(site)                     \
  (::usk::fault::armed()                         \
       ? ::usk::fault::Kfail::instance().check(site) \
       : ::usk::fault::Outcome{})
