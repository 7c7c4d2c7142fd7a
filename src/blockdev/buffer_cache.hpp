// Buffer cache: the kernel's writeback page cache over the simulated disk.
//
// Write-back semantics like the 2.6 page/buffer cache: a write dirties the
// cached block; the disk is touched only on misses, on dirty evictions,
// and on sync(). This is what stands between the filesystems and the Disk
// model, so cache-friendly access patterns (re-reads, sequential scans)
// behave the way the paper's testbeds did.
//
// The PR-8 storage tier upgraded this from a single-threaded LRU cost
// model to a real page cache:
//
//   * Data plane. With a BlockBackend attached (set_backend), each cached
//     block carries its 4 KiB payload: miss fills read real bytes from the
//     backend, writebacks push real bytes down, and read_data/write_data
//     are the payload-carrying access paths. Without a backend the cache
//     behaves exactly as before (cost model only), so MemFs and the
//     existing benches are untouched.
//
//   * Thread safety. One mutex guards the cache AND serialises Disk-model
//     charges (the Disk itself is not thread-safe). Lock order is
//     cache -> backend; nothing calls back up into the cache.
//
//   * Background writeback. start_writeback() launches a flusher thread
//     that wakes every interval and writes dirty blocks back, oldest
//     first, when the dirty ratio exceeds its threshold or a block's
//     dirty age exceeds max_age (the pdflush/bdi-writeback ratio+age
//     policy) under its starting thread's fault injector, which must
//     outlive it. sync_barrier() is the foreground barrier: all dirty
//     blocks written back and the backend flushed before it returns.
//
//   * Dirty accounting for ksup. Each clean->dirty transition consults
//     the calling thread's dirty-page charge (base::Current::dirty),
//     which a supervised invocation installs for its lifetime to charge
//     its dirty-page budget; a rejecting charge fails the write with
//     EDQUOT before any state changes.
//
// Writeback failure semantics are unchanged from the seed: a block whose
// writeback fails STAYS cached and dirty -- sync can be retried; no data
// is dropped on the floor -- and the first error is surfaced.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/current.hpp"
#include "blockdev/block_backend.hpp"
#include "blockdev/disk.hpp"

namespace usk::blockdev {

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;    ///< dirty evictions + sync flushes
  std::uint64_t bg_writebacks = 0; ///< of which: by the flusher thread
  std::uint64_t evictions = 0;
  std::uint64_t gate_rejects = 0;  ///< writes refused by the dirty gate

  [[nodiscard]] double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Background-writeback policy (pdflush-style ratio + age).
struct WritebackConfig {
  std::uint32_t interval_ms = 50;     ///< flusher wakeup period
  std::uint32_t dirty_ratio_pct = 25; ///< start writing above this % of capacity
  std::uint32_t max_age_ms = 500;     ///< any dirty block older than this goes
};

class BufferCache {
 public:
  BufferCache(Disk& disk, std::size_t capacity_blocks)
      : disk_(disk), capacity_(capacity_blocks) {}

  ~BufferCache() { stop_writeback(); }

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Attach the data plane. Call before any payload-carrying access;
  /// blocks cached earlier (cost-model mode) have no payloads.
  void set_backend(BlockBackend* backend) {
    std::lock_guard lk(mu_);
    backend_ = backend;
  }

  /// Bring `lba` into the cache for reading. kEIO if the miss fill (or a
  /// dirty eviction making room for it) fails.
  [[nodiscard]] Result<void> read(Lba lba) {
    std::lock_guard lk(mu_);
    return access_locked(lba, /*dirty=*/false, /*fill=*/true).error();
  }
  /// Bring `lba` into the cache and dirty it (write-back).
  [[nodiscard]] Result<void> write(Lba lba) {
    std::lock_guard lk(mu_);
    return access_locked(lba, /*dirty=*/true, /*fill=*/true).error();
  }

  /// Payload read: bring `lba` in (filling from the backend on a miss)
  /// and copy its 4 KiB into `out`. Requires a backend.
  [[nodiscard]] Result<void> read_data(Lba lba, void* out) {
    std::lock_guard lk(mu_);
    if (backend_ == nullptr) return Errno::kEINVAL;
    auto r = access_locked(lba, /*dirty=*/false, /*fill=*/true);
    if (!r.ok()) return r.error();
    std::memcpy(out, r.value()->data.data(), kBlockBytes);
    return {};
  }

  /// Payload write of a FULL block: no read-modify-write fill is needed
  /// on a miss (the whole block is overwritten), matching real page-cache
  /// behaviour for full-page writes. Dirties the block.
  [[nodiscard]] Result<void> write_data(Lba lba, const void* in) {
    std::lock_guard lk(mu_);
    if (backend_ == nullptr) return Errno::kEINVAL;
    auto r = access_locked(lba, /*dirty=*/true, /*fill=*/false);
    if (!r.ok()) return r.error();
    std::memcpy(r.value()->data.data(), in, kBlockBytes);
    return {};
  }

  /// Write every dirty block back to disk (sync(2) / journal commit).
  /// A block whose writeback fails stays dirty -- sync can be retried --
  /// and the first error is returned after attempting every block.
  [[nodiscard]] Result<void> flush() {
    std::lock_guard lk(mu_);
    return flush_locked(/*background=*/false);
  }

  /// Foreground durability barrier: every dirty block written back AND
  /// the backend flushed (fsync). Any concurrent flusher pass completes
  /// first (it holds the same lock).
  [[nodiscard]] Result<void> sync_barrier() {
    std::lock_guard lk(mu_);
    Result<void> r = flush_locked(/*background=*/false);
    if (backend_ != nullptr) {
      if (Result<void> f = backend_->backend_flush(); !f.ok() && r.ok()) {
        r = f;
      }
    }
    return r;
  }

  /// Drop everything (unmount); dirty blocks are written back first. The
  /// cache empties even if a writeback failed (surfaced in the result) --
  /// unmount does not retry.
  Result<void> clear() {
    std::lock_guard lk(mu_);
    Result<void> r = flush_locked(/*background=*/false);
    map_.clear();
    lru_.clear();
    dirty_count_ = 0;
    return r;
  }

  // --- background writeback ---------------------------------------------------
  void start_writeback(const WritebackConfig& cfg = WritebackConfig{}) {
    stop_writeback();
    {
      std::lock_guard lk(mu_);
      wb_cfg_ = cfg;
      wb_stop_ = false;
    }
    flusher_ = std::thread([this, kf = base::current().kfail] {
      fault::Kfail::Bind bind(kf);
      flusher_loop();
    });
  }

  void stop_writeback() {
    {
      std::lock_guard lk(mu_);
      wb_stop_ = true;
    }
    wb_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
  }

  /// Nudge the flusher to run a pass now (e.g. after a burst of dirtying).
  void kick_writeback() { wb_cv_.notify_all(); }

  [[nodiscard]] bool writeback_running() const {
    return flusher_.joinable();
  }

  // --- observation ------------------------------------------------------------
  [[nodiscard]] CacheStats stats() const {
    std::lock_guard lk(mu_);
    return stats_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lk(mu_);
    return map_.size();
  }
  [[nodiscard]] std::size_t dirty_count() const {
    std::lock_guard lk(mu_);
    return dirty_count_;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] Disk& disk() { return disk_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kWritebackBatch = 64;  ///< blocks per wakeup

  struct Entry {
    std::list<Lba>::iterator lru_it;
    bool dirty = false;
    Clock::time_point dirty_since{};
    std::vector<std::uint8_t> data;  ///< payload (backend mode only)
  };

  /// Core access path. `fill`: on a miss, read the block in (Disk charge
  /// + backend payload). write_data passes fill=false -- a full-block
  /// overwrite needs no read-modify-write. Returns the entry.
  Result<Entry*> access_locked(Lba lba, bool dirty, bool fill) {
    ++stats_.lookups;
    auto it = map_.find(lba);
    if (it != map_.end()) {
      ++stats_.hits;
      lru_.erase(it->second.lru_it);
      lru_.push_front(lba);
      it->second.lru_it = lru_.begin();
      USK_TRY(mark_dirty_locked(it->second, dirty));
      return &it->second;
    }
    ++stats_.misses;
    if (map_.size() >= capacity_) USK_TRY(evict_one_locked());
    Entry e;
    if (backend_ != nullptr) e.data.resize(kBlockBytes);
    if (fill) {
      // A read (or sub-block write) brings the block in: charge the Disk
      // model and, in backend mode, fetch the real payload.
      USK_TRY(disk_.read(lba));
      if (backend_ != nullptr) {
        USK_TRY(backend_->backend_read(lba, e.data.data()));
      }
    }
    // The dirty charge runs BEFORE the entry is inserted so a rejected
    // write leaves no trace.
    if (dirty) USK_TRY(charge_dirty_locked(1));
    lru_.push_front(lba);
    auto pos = map_.emplace(lba, std::move(e)).first;
    pos->second.lru_it = lru_.begin();
    if (dirty) {
      pos->second.dirty = true;
      pos->second.dirty_since = Clock::now();
      ++dirty_count_;
    }
    return &pos->second;
  }

  Result<void> mark_dirty_locked(Entry& e, bool dirty) {
    if (!dirty || e.dirty) return {};
    USK_TRY(charge_dirty_locked(1));
    e.dirty = true;
    e.dirty_since = Clock::now();
    ++dirty_count_;
    return {};
  }

  /// Consult the thread's dirty-page charge; a refusal is counted and
  /// fails the write with EDQUOT.
  Result<void> charge_dirty_locked(std::uint64_t blocks) {
    const base::DirtyCharge& c = base::current().dirty;
    if (c.fn == nullptr || c.fn(c.ctx, blocks)) return {};
    ++stats_.gate_rejects;
    return Errno::kEDQUOT;
  }

  /// Write one dirty block back: Disk-model charge first (cost + fault
  /// site), then the real payload to the backend. Failure leaves the
  /// block cached and dirty.
  Result<void> writeback_locked(Lba lba, Entry& e, bool background) {
    USK_TRY(disk_.write(lba));
    if (backend_ != nullptr && !e.data.empty()) {
      USK_TRY(backend_->backend_write(lba, e.data.data()));
    }
    e.dirty = false;
    --dirty_count_;
    ++stats_.writebacks;
    if (background) ++stats_.bg_writebacks;
    return {};
  }

  Result<void> flush_locked(bool background) {
    Result<void> rc{};
    for (auto& [lba, entry] : map_) {
      if (!entry.dirty) continue;
      if (Result<void> r = writeback_locked(lba, entry, background);
          !r.ok() && rc.ok()) {
        rc = r;
      }
    }
    return rc;
  }

  Result<void> evict_one_locked() {
    Lba victim = lru_.back();
    auto it = map_.find(victim);
    if (it->second.dirty) {
      // Failed writeback: the victim stays cached and dirty (no data is
      // dropped on the floor); the access that needed the slot fails.
      USK_TRY(writeback_locked(victim, it->second, /*background=*/false));
    }
    lru_.pop_back();
    map_.erase(it);
    ++stats_.evictions;
    return {};
  }

  void flusher_loop() {
    std::unique_lock lk(mu_);
    while (!wb_stop_) {
      wb_cv_.wait_for(lk, std::chrono::milliseconds(wb_cfg_.interval_ms),
                      [this] { return wb_stop_; });
      if (wb_stop_) break;
      // Ratio + age policy: collect dirty blocks oldest-first; write back
      // while over the dirty ratio, plus any block past max_age.
      std::vector<std::pair<Clock::time_point, Lba>> dirty;
      dirty.reserve(dirty_count_);
      for (const auto& [lba, e] : map_) {
        if (e.dirty) dirty.emplace_back(e.dirty_since, lba);
      }
      std::sort(dirty.begin(), dirty.end());
      const auto now = Clock::now();
      const std::size_t ratio_target =
          capacity_ * wb_cfg_.dirty_ratio_pct / 100;
      std::uint32_t written = 0;
      for (const auto& [since, lba] : dirty) {
        if (written >= kWritebackBatch) break;
        const bool over_ratio = dirty_count_ > ratio_target;
        const bool aged =
            now - since >= std::chrono::milliseconds(wb_cfg_.max_age_ms);
        if (!over_ratio && !aged) break;  // oldest-first: rest are younger
        auto it = map_.find(lba);
        if (it == map_.end() || !it->second.dirty) continue;
        // A failed background writeback is retried on the next pass.
        (void)writeback_locked(lba, it->second, /*background=*/true);
        ++written;
      }
    }
  }

  Disk& disk_;
  std::size_t capacity_;
  BlockBackend* backend_ = nullptr;
  std::unordered_map<Lba, Entry> map_;
  std::list<Lba> lru_;
  std::size_t dirty_count_ = 0;
  CacheStats stats_;

  mutable std::mutex mu_;
  std::condition_variable wb_cv_;
  WritebackConfig wb_cfg_{};
  bool wb_stop_ = false;
  std::thread flusher_;
};

}  // namespace usk::blockdev
