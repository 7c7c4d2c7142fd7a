// Dentry cache, hash-sharded across instrumented dcache_locks.
//
// Paper §3.3 instruments exactly this lock: "we added instrumentation for
// the dentry cache lock, dcache_lock, which prevents race conditions in
// file-system name-space operations such as renames. During our benchmark,
// this lock was hit an average of 8,805 times a second." The paper could
// only observe that contention; the SMP build fixes it by partitioning the
// cache into `shards` independent LRU segments, each behind its own
// instrumented SpinLock. Keys hash over (fs_id, parent, name) so a single
// hot directory still spreads across shards. With shards == 1 the cache is
// byte-for-byte the paper's global-dcache_lock configuration, which the E6
// reproduction (bench_evmon) still uses.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/sync.hpp"
#include "base/work.hpp"
#include "fs/types.hpp"

namespace usk::fs {

struct DcacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;
};

/// LRU cache of (parent inode, name) -> child inode. Sharded by key hash;
/// every shard holds capacity/shards entries behind one dcache_lock.
class Dcache {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  explicit Dcache(std::size_t capacity = 8192,
                  std::size_t shards = kDefaultShards)
      : locks_(shards == 0 ? 1 : shards, "dcache_lock"),
        shards_(locks_.shard_count()),
        per_shard_capacity_(
            std::max<std::size_t>(1, capacity / locks_.shard_count())) {}

  /// Returns the cached child inode or kInvalidInode on miss. `fs_id`
  /// namespaces inode numbers when several filesystems are mounted.
  InodeNum lookup(InodeNum parent, std::string_view name,
                  std::uint32_t fs_id = 0);

  void insert(InodeNum parent, std::string_view name, InodeNum child,
              std::uint32_t fs_id = 0);

  /// Remove one entry (unlink/rename of `name` in `parent`).
  void invalidate(InodeNum parent, std::string_view name,
                  std::uint32_t fs_id = 0);

  /// Remove every entry under `parent` (rmdir). Visits all shards: entries
  /// hash by full key, so one directory's children spread across shards.
  void invalidate_dir(InodeNum parent, std::uint32_t fs_id = 0);

  void clear();

  /// Stats merged across shards (each shard's counters are updated under
  /// its own lock).
  [[nodiscard]] DcacheStats stats() const;

  /// Shard 0's lock -- in the 1-shard (paper E6) configuration this is THE
  /// global dcache_lock.
  [[nodiscard]] base::SpinLock& lock() { return locks_.at(0); }
  [[nodiscard]] base::SpinLock& lock(std::size_t shard) {
    return locks_.at(shard);
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_capacity() const {
    return per_shard_capacity_;
  }
  /// Total lock acquisitions across every shard (the paper's hit count).
  [[nodiscard]] std::uint64_t lock_acquisitions() const {
    return locks_.total_acquisitions();
  }
  [[nodiscard]] std::uint64_t lock_contended_spins() const {
    return locks_.total_contended_spins();
  }

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;

  /// Simulated hash-chain-walk cost: `units` of ALU work executed while
  /// HOLDING the shard lock on every lookup/insert/invalidate. In the
  /// paper's kernel the cycles that made dcache_lock hot were spent walking
  /// hash chains *under* the lock; this models that occupancy. Default 0
  /// (pure map ops, the seed's behaviour). Set before worker threads start.
  void set_hold_work(std::uint32_t units) { hold_work_ = units; }

 private:
  /// A probe key: it borrows the name, so lookup and invalidate build no
  /// string. Only insert makes an owning Key.
  struct KeyView {
    std::uint32_t fs_id;
    InodeNum parent;
    std::string_view name;
  };
  struct Key {
    std::uint32_t fs_id;
    InodeNum parent;
    std::string name;
    operator KeyView() const {  // NOLINT(google-explicit-constructor)
      return {fs_id, parent, name};
    }
  };
  // Transparent over Key and KeyView (a Key converts to its view), so a
  // borrowed probe hashes and compares exactly like the stored key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyView& k) const {
      return std::hash<std::string_view>()(k.name) ^
             (std::hash<InodeNum>()(k.parent) * 0x9E3779B97F4A7C15ull) ^
             (static_cast<std::size_t>(k.fs_id) << 17);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const {
      return a.fs_id == b.fs_id && a.parent == b.parent && a.name == b.name;
    }
  };
  struct Entry {
    InodeNum child;
    /// This entry's node in its shard's LRU list. The list holds the
    /// address of the map's own key (stable until the entry is erased),
    /// so each name is stored once.
    std::list<const Key*>::iterator lru_it;
  };
  struct Shard {
    std::unordered_map<Key, Entry, KeyHash, KeyEq> map;
    std::list<const Key*> lru;  // front = most recent
    DcacheStats stats;
  };

  [[nodiscard]] std::size_t shard_of(const KeyView& k) const {
    return KeyHash{}(k) % shards_.size();
  }

  /// Move `e` to the front of the LRU: relinks its node, allocates nothing.
  static void touch(Shard& s, Entry& e) {
    s.lru.splice(s.lru.begin(), s.lru, e.lru_it);
  }

  mutable base::ShardedLock locks_;
  std::vector<Shard> shards_;
  std::size_t per_shard_capacity_;
  std::uint32_t hold_work_ = 0;
};

}  // namespace usk::fs
