// Simulated rotating disk: the I/O substrate behind the paper's testbeds.
//
// The paper's machines ran IDE and SCSI disks (a 7,200 RPM IDE disk for
// Kefence's Wrapfs tests, a Quantum Atlas 15K SCSI for log data), and its
// future work wants Cosy made "I/O conscious" by studying "typical disk
// access patterns" (§2.4). This model prices exactly the pattern
// difference that matters: sequential access costs transfer only, random
// access adds a head seek that grows with distance, plus rotational
// settle. Costs are executed on the work engine (real CPU time), the same
// discipline as the boundary model.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>

#include "base/errno.hpp"
#include "base/work.hpp"
#include "fault/kfail.hpp"

namespace usk::blockdev {

/// Logical block address; blocks are 4 KiB.
using Lba = std::uint64_t;
inline constexpr std::size_t kBlockBytes = 4096;

/// Cost parameters in work units, the same for every Disk. They
/// approximate a 2005 7,200 RPM disk relative to the boundary model's
/// ~450-unit syscall crossing: a full-stroke seek is worth hundreds of
/// syscalls, sequential transfer is nearly free.
struct DiskModel {
  std::uint64_t seek_base = 1200;      ///< head settle once the move starts
  std::uint64_t seek_per_log2 = 900;   ///< per log2(distance) step
  std::uint64_t rotational = 1400;     ///< average rotational latency
  std::uint64_t transfer_per_block = 260;
  /// Consecutive LBAs after the head need no seek or rotation.
  std::uint64_t sequential_window = 1;
};

struct DiskStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t seeks = 0;
  std::uint64_t sequential_hits = 0;
  std::uint64_t total_seek_distance = 0;
  std::uint64_t units_charged = 0;
  std::uint64_t media_errors = 0;    ///< kfail hard EIO injections
  std::uint64_t retries = 0;         ///< kfail transient sector retries
  std::uint64_t latency_spikes = 0;  ///< kfail injected seek storms
};

class Disk {
 public:
  explicit Disk(Lba blocks) : blocks_(blocks) {}

  /// Charge hook (work engine + task kernel time), same contract as the
  /// filesystem cost hooks.
  void set_charge_hook(std::function<void(std::uint64_t)> hook) {
    charge_ = std::move(hook);
  }

  /// Fallible media access: kEIO under kfail's disk.read/disk.write sites,
  /// kOk otherwise. The cost model charges even on a failed access -- the
  /// head moved and the platter spun before the medium reported the error.
  [[nodiscard]] Result<void> read(Lba lba) {
    return access(lba, /*write=*/false);
  }
  [[nodiscard]] Result<void> write(Lba lba) {
    return access(lba, /*write=*/true);
  }

  [[nodiscard]] Lba size() const { return blocks_; }
  [[nodiscard]] Lba head() const { return head_; }
  [[nodiscard]] const DiskStats& stats() const { return stats_; }

 private:
  Result<void> access(Lba lba, bool write) {
    if (write) {
      ++stats_.writes;
    } else {
      ++stats_.reads;
    }
    std::uint64_t units = model_.transfer_per_block;
    Lba lo = std::min(head_, lba);
    Lba hi = std::max(head_, lba);
    Lba distance = hi - lo;
    if (distance <= model_.sequential_window) {
      ++stats_.sequential_hits;
    } else {
      ++stats_.seeks;
      stats_.total_seek_distance += distance;
      // Seek time grows roughly with the square root / log of distance on
      // real disks; log2 keeps the model monotone and cheap.
      std::uint64_t steps = 0;
      while (distance > 1) {
        distance >>= 1;
        ++steps;
      }
      units += model_.seek_base + model_.seek_per_log2 * steps +
               model_.rotational;
    }
    head_ = lba + 1;  // transfer leaves the head after the block
    if (auto f = USK_FAIL_POINT(write ? fault::Site::kDiskWrite
                                      : fault::Site::kDiskRead);
        f.fail || f.transient) {
      if (f.fail) {
        ++stats_.media_errors;
        stats_.units_charged += units;
        if (charge_) charge_(units);
        return f.err;
      }
      // Transient media error: the sector reads clean on retry, one
      // rotation later.
      ++stats_.retries;
      units += model_.rotational;
    }
    if (auto f = USK_FAIL_POINT(fault::Site::kDiskLatency);
        f.fail || f.transient) {
      // Seek storm: the access completes, but only after a full-stroke
      // seek's worth of extra latency (e.g. thermal recalibration).
      ++stats_.latency_spikes;
      units +=
          model_.seek_base + model_.seek_per_log2 * 30 + model_.rotational;
    }
    stats_.units_charged += units;
    if (charge_) charge_(units);
    return {};
  }

  Lba blocks_;
  DiskModel model_;
  Lba head_ = 0;
  DiskStats stats_;
  std::function<void(std::uint64_t)> charge_;
};

}  // namespace usk::blockdev
