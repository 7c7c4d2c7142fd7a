// Store: the persistent storage tier, composed.
//
// Image layout (4 KiB blocks):
//   block 0                     dual-slot superblock (A/B, checksummed)
//   blocks [1, 1+J)             group-commit journal region
//   blocks [1+J, 1+J+D)         data region (filesystem home locations)
//
// The Store stitches the pieces into one durability story:
//
//   * commit_txn() runs a transaction through the GroupCommitJournal --
//     concurrent committers share one fsync -- and transparently
//     checkpoints + retries when the journal region fills (ENOSPC).
//
//   * attach_cache() plugs the data region in as the buffer cache's
//     BlockBackend, so cache writebacks move real bytes into the image.
//     Because callers only dirty home locations AFTER their transaction
//     committed (redo journaling), background writeback can never push
//     uncommitted state.
//
//   * checkpoint() is the reclaim path: barrier the cache (all dirty
//     home blocks down + fsync), bump the superblock's stable_seq to the
//     last durable commit unit, and reset the journal tail. The
//     superblock write alternates between two checksummed slots so a
//     torn checkpoint leaves the previous superblock intact -- recovery
//     picks the valid slot with the highest seq.
//
//   * recover() reads the surviving superblock and replays every valid
//     commit unit with seq > stable_seq through the caller's apply
//     function (committed-prefix semantics; see journal.hpp). The caller
//     (fs bridge) rebuilds state, then checkpoints to make the recovered
//     state the new stable image.
//
// kspan: store.commit / store.writeback / store.checkpoint spans;
// The /proc/metrics gauges and /proc/store/** files are wired by
// uk::register_storage_proc (uk/kproc.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "blockdev/block_backend.hpp"
#include "blockdev/buffer_cache.hpp"
#include "store/image.hpp"
#include "store/journal.hpp"

namespace usk::store {

struct StoreConfig {
  std::uint64_t data_blocks = 1024;
  std::uint64_t journal_blocks = 256;
  ImageMode mode = ImageMode::kPread;
  JournalConfig journal{};
};

struct StoreStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t enospc_retries = 0;  ///< commits that had to checkpoint first
  std::uint64_t recoveries = 0;
};

class Store {
 public:
  Store() = default;
  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Create-or-open the image at `path`. A fresh image gets an initial
  /// superblock (stable_seq = 0); an existing one is left untouched until
  /// recover().
  [[nodiscard]] Result<void> open(const std::string& path,
                                  const StoreConfig& cfg = StoreConfig{});
  void close();
  [[nodiscard]] bool is_open() const { return image_.is_open(); }

  /// Plug the data region in as `cache`'s backend. Cache LBA k maps to
  /// image block data_base + k.
  void attach_cache(blockdev::BufferCache* cache);

  // --- transactions ----------------------------------------------------------
  [[nodiscard]] JTxn begin_txn() const { return JTxn{}; }
  /// Group-commit the transaction; durable on return. Checkpoints and
  /// retries when the journal region is full. `post_commit`, if given,
  /// runs after the unit is durable but still inside the checkpoint
  /// exclusion -- the filesystem uses it to apply home-location
  /// post-images to the page cache, guaranteeing no checkpoint can
  /// reclaim the unit before its home writes are at least cached. A
  /// post_commit error is returned, but the commit itself stays durable.
  [[nodiscard]] Result<std::uint64_t> commit_txn(
      JTxn&& txn, const std::function<Result<void>()>& post_commit = nullptr);

  /// Force a checkpoint (sync(2) path): cache barrier, superblock bump,
  /// journal reclaim.
  [[nodiscard]] Result<void> checkpoint();

  // --- recovery --------------------------------------------------------------
  struct RecoveryReport {
    bool superblock_ok = false;
    std::uint64_t stable_seq = 0;
    GroupCommitJournal::ScanReport scan;
  };
  /// Mount-time recovery: pick the valid superblock slot, replay the
  /// committed prefix of the journal through `apply`.
  RecoveryReport recover(
      const std::function<void(const JRecord&, std::uint64_t)>& apply);

  // --- accessors -------------------------------------------------------------
  [[nodiscard]] BackingImage& image() { return image_; }
  [[nodiscard]] GroupCommitJournal* journal() { return journal_.get(); }
  [[nodiscard]] blockdev::BufferCache* cache() { return cache_; }
  [[nodiscard]] std::uint64_t data_base() const { return data_base_; }
  [[nodiscard]] std::uint64_t data_blocks() const { return cfg_.data_blocks; }
  [[nodiscard]] std::uint64_t journal_region_off() const {
    return kBlockBytes;
  }
  [[nodiscard]] std::uint64_t journal_region_bytes() const {
    return cfg_.journal_blocks * kBlockBytes;
  }
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::uint64_t stable_seq() const;

  /// Region classification for crash-oracle coverage accounting.
  enum class Region : std::uint8_t { kSuperblock, kJournal, kData };
  [[nodiscard]] Region classify_offset(std::uint64_t byte_off) const;

 private:
  /// Adapter: cache LBAs -> data-region image blocks.
  class DataBackend final : public blockdev::BlockBackend {
   public:
    explicit DataBackend(Store& s) : s_(s) {}
    Result<void> backend_read(std::uint64_t lba, void* buf) override;
    Result<void> backend_write(std::uint64_t lba, const void* buf) override;
    Result<void> backend_flush() override;

   private:
    Store& s_;
  };

  Result<void> write_superblock_locked(std::uint64_t stable_seq);
  Result<void> checkpoint_locked();

  StoreConfig cfg_;
  BackingImage image_;
  std::unique_ptr<GroupCommitJournal> journal_;
  DataBackend backend_{*this};
  blockdev::BufferCache* cache_ = nullptr;
  std::uint64_t data_base_ = 0;

  mutable std::mutex mu_;  ///< checkpoint/superblock/stats; NOT commit
  /// Commit/checkpoint exclusion: commits hold the shared side while in
  /// flight; checkpoint takes it exclusively so the journal tail is never
  /// reset under a transaction that is committing (or applying home
  /// writes via commit-then-apply callers).
  mutable std::shared_mutex apply_mu_;
  std::uint64_t sb_seq_ = 0;      ///< superblock generation (slot = seq % 2)
  std::uint64_t stable_seq_ = 0;  ///< last checkpointed commit-unit seq
  StoreStats stats_;
};

}  // namespace usk::store
