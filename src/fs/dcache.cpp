#include "fs/dcache.hpp"

#include "trace/tracepoint.hpp"

namespace usk::fs {

InodeNum Dcache::lookup(InodeNum parent, std::string_view name,
                        std::uint32_t fs_id) {
  USK_TRACE_LATENCY("dcache", "lookup");
  const KeyView key{fs_id, parent, name};
  std::size_t si = shard_of(key);
  Shard& s = shards_[si];
  InodeNum found = kInvalidInode;
  {
    USK_SPIN_GUARD(locks_.at(si));
    base::alu_hold(hold_work_);  // chain walk under the lock
    ++s.stats.lookups;
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      ++s.stats.hits;
      touch(s, it->second);
      found = it->second.child;
    }
  }
  // Emit outside the shard lock so enabled tracing never stretches the
  // paper's instrumented critical section.
  if (found != kInvalidInode) {
    USK_TRACEPOINT("dcache", "hit", parent, found);
  } else {
    USK_TRACEPOINT("dcache", "miss", parent);
  }
  return found;
}

void Dcache::insert(InodeNum parent, std::string_view name, InodeNum child,
                    std::uint32_t fs_id) {
  const KeyView key{fs_id, parent, name};
  std::size_t si = shard_of(key);
  Shard& s = shards_[si];
  USK_SPIN_GUARD(locks_.at(si));
  base::alu_hold(hold_work_);
  ++s.stats.inserts;
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    it->second.child = child;
    touch(s, it->second);
    return;
  }
  if (s.map.size() >= per_shard_capacity_) {
    // Evict this shard's least-recently used.
    s.map.erase(s.map.find(*s.lru.back()));
    s.lru.pop_back();
    ++s.stats.evictions;
  }
  auto ins =
      s.map.emplace(Key{fs_id, parent, std::string(name)}, Entry{child, {}})
          .first;
  s.lru.push_front(&ins->first);
  ins->second.lru_it = s.lru.begin();
}

void Dcache::invalidate(InodeNum parent, std::string_view name,
                        std::uint32_t fs_id) {
  const KeyView key{fs_id, parent, name};
  std::size_t si = shard_of(key);
  Shard& s = shards_[si];
  USK_SPIN_GUARD(locks_.at(si));
  base::alu_hold(hold_work_);
  ++s.stats.invalidations;
  auto it = s.map.find(key);
  if (it == s.map.end()) return;
  s.lru.erase(it->second.lru_it);
  s.map.erase(it);
}

void Dcache::invalidate_dir(InodeNum parent, std::uint32_t fs_id) {
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = shards_[si];
    USK_SPIN_GUARD(locks_.at(si));
    if (si == 0) ++s.stats.invalidations;
    for (auto it = s.map.begin(); it != s.map.end();) {
      if (it->first.parent == parent && it->first.fs_id == fs_id) {
        s.lru.erase(it->second.lru_it);
        it = s.map.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Dcache::clear() {
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = shards_[si];
    USK_SPIN_GUARD(locks_.at(si));
    s.map.clear();
    s.lru.clear();
  }
}

DcacheStats Dcache::stats() const {
  DcacheStats sum;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const Shard& s = shards_[si];
    USK_SPIN_GUARD(locks_.at(si));
    sum.lookups += s.stats.lookups;
    sum.hits += s.stats.hits;
    sum.inserts += s.stats.inserts;
    sum.invalidations += s.stats.invalidations;
    sum.evictions += s.stats.evictions;
  }
  return sum;
}

std::size_t Dcache::size() const {
  std::size_t n = 0;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    USK_SPIN_GUARD(locks_.at(si));
    n += shards_[si].map.size();
  }
  return n;
}

std::size_t Dcache::shard_size(std::size_t shard) const {
  USK_SPIN_GUARD(locks_.at(shard));
  return shards_[shard].map.size();
}

}  // namespace usk::fs
