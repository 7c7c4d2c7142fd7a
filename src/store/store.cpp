#include "store/store.hpp"

#include <cstring>

#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::store {

namespace {

constexpr std::uint64_t kSuperMagic = 0x55534b53544f5231ull;  // "USKSTOR1"
constexpr std::uint64_t kSlotBytes = 128;  // two slots in block 0

struct SuperblockSlot {
  std::uint64_t magic;
  std::uint64_t seq;          ///< generation; highest valid slot wins
  std::uint64_t stable_seq;   ///< last checkpointed commit-unit seq
  std::uint64_t data_blocks;
  std::uint64_t journal_blocks;
  std::uint64_t checksum;     ///< FNV-1a over the preceding fields
};
static_assert(sizeof(SuperblockSlot) == 48, "on-media superblock format");
static_assert(sizeof(SuperblockSlot) <= kSlotBytes);

std::uint64_t slot_checksum(const SuperblockSlot& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
  for (std::size_t i = 0; i < sizeof(SuperblockSlot) - sizeof(std::uint64_t);
       ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool slot_valid(const SuperblockSlot& s) {
  return s.magic == kSuperMagic && s.checksum == slot_checksum(s);
}

}  // namespace

Store::~Store() { close(); }

Result<void> Store::open(const std::string& path, const StoreConfig& cfg) {
  std::lock_guard lk(mu_);
  if (image_.is_open()) return Errno::kEBUSY;
  cfg_ = cfg;
  data_base_ = 1 + cfg_.journal_blocks;
  const std::uint64_t total = 1 + cfg_.journal_blocks + cfg_.data_blocks;
  USK_TRY(image_.open(path, total));

  // Adopt the surviving superblock, or format a fresh image.
  SuperblockSlot slots[2];
  USK_TRY(image_.read_bytes(0, &slots[0], sizeof(SuperblockSlot)));
  USK_TRY(image_.read_bytes(kSlotBytes, &slots[1], sizeof(SuperblockSlot)));
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (slot_valid(slots[i]) && (best < 0 || slots[i].seq > slots[best].seq)) {
      best = i;
    }
  }
  if (best >= 0) {
    if (slots[best].data_blocks != cfg_.data_blocks ||
        slots[best].journal_blocks != cfg_.journal_blocks) {
      image_.close();
      return Errno::kEINVAL;  // geometry mismatch: not our image
    }
    sb_seq_ = slots[best].seq;
    stable_seq_ = slots[best].stable_seq;
  } else {
    sb_seq_ = 0;
    stable_seq_ = 0;
    USK_TRY(write_superblock_locked(0));
  }
  journal_ = std::make_unique<GroupCommitJournal>(
      image_, journal_region_off(), journal_region_bytes(), cfg_.journal);
  return {};
}

void Store::close() {
  std::lock_guard lk(mu_);
  journal_.reset();
  if (cache_ != nullptr) {
    cache_->set_backend(nullptr);
    cache_ = nullptr;
  }
  image_.close();
}

void Store::attach_cache(blockdev::BufferCache* cache) {
  std::lock_guard lk(mu_);
  cache_ = cache;
  if (cache_ != nullptr) cache_->set_backend(&backend_);
}

Result<void> Store::DataBackend::backend_read(std::uint64_t lba, void* buf) {
  if (lba >= s_.cfg_.data_blocks) return Errno::kEINVAL;
  return s_.image_.read_block(s_.data_base_ + lba, buf);
}

Result<void> Store::DataBackend::backend_write(std::uint64_t lba,
                                               const void* buf) {
  if (lba >= s_.cfg_.data_blocks) return Errno::kEINVAL;
  return s_.image_.write_block(s_.data_base_ + lba, buf);
}

Result<void> Store::DataBackend::backend_flush() { return s_.image_.flush(); }

Result<std::uint64_t> Store::commit_txn(
    const JTxn& txn, const std::function<Result<void>()>& post_commit) {
  if (journal_ == nullptr) return Errno::kEBADF;
  if (txn.empty()) return journal_->durable_seq();
  trace::SpanScope span("store.commit");
  const std::uint64_t need = GroupCommitJournal::unit_bytes(txn);
  for (int attempt = 0; attempt < 3; ++attempt) {
    // Proactive reclaim: checkpoint before the region is actually full
    // so concurrent batches rarely see ENOSPC.
    if (journal_->tail_bytes() + need > journal_region_bytes() * 3 / 4) {
      USK_TRY(checkpoint());
    }
    Result<std::uint64_t> r = Errno::kEIO;
    {
      // Shared side of the checkpoint exclusion: while a commit (and its
      // post-commit home application) is in flight the journal tail
      // cannot be reset under it.
      std::shared_lock sl(apply_mu_);
      r = journal_->commit(txn);
      if (r.ok() && post_commit) USK_TRY(post_commit());
    }
    if (r.ok()) {
      span.add_units(need);
      return r;
    }
    // ENOSPC: the journal left `txn` untouched, so the retry after the
    // checkpoint commits the caller's own records again.
    if (r.error() != Errno::kENOSPC) return r.error();
    count_enospc_retry();
    USK_TRY(checkpoint());
  }
  return Errno::kENOSPC;
}

void Store::count_enospc_retry() {
  std::lock_guard lk(mu_);  // concurrent committers retry concurrently
  ++stats_.enospc_retries;
}

Result<void> Store::checkpoint() {
  // Exclusive side: waits out every in-flight commit (and, for callers
  // using commit-then-apply, their home-location application) so nothing
  // lands in the journal between the cache barrier and the tail reset.
  std::unique_lock ul(apply_mu_);
  std::lock_guard lk(mu_);
  return checkpoint_locked();
}

Result<void> Store::checkpoint_locked() {
  if (journal_ == nullptr) return Errno::kEBADF;
  trace::SpanScope span("store.checkpoint");
  {
    // Push every dirty home block down and fsync: after this the data
    // region alone reproduces all checkpointed state.
    trace::SpanScope wb("store.writeback");
    if (cache_ != nullptr) {
      USK_TRY(cache_->sync_barrier());
    } else {
      USK_TRY(image_.flush());
    }
  }
  const std::uint64_t stable = journal_->durable_seq();
  USK_TRY(write_superblock_locked(stable));
  journal_->reset_tail();
  stable_seq_ = stable;
  ++stats_.checkpoints;
  USK_TRACEPOINT("store", "checkpoint", stable, 0);
  return {};
}

Result<void> Store::write_superblock_locked(std::uint64_t stable_seq) {
  SuperblockSlot s{};
  s.magic = kSuperMagic;
  s.seq = ++sb_seq_;
  s.stable_seq = stable_seq;
  s.data_blocks = cfg_.data_blocks;
  s.journal_blocks = cfg_.journal_blocks;
  s.checksum = slot_checksum(s);
  // Alternate slots so a torn superblock write leaves the previous
  // generation intact; the flush makes the new generation the winner.
  const std::uint64_t off = (s.seq % 2) * kSlotBytes;
  USK_TRY(image_.write_bytes(off, &s, sizeof(s)));
  return image_.flush();
}

Store::RecoveryReport Store::recover(
    const std::function<void(const JRecord&, std::uint64_t)>& apply) {
  std::lock_guard lk(mu_);
  RecoveryReport rep;
  if (journal_ == nullptr) return rep;
  rep.superblock_ok = true;  // open() already validated or formatted it
  rep.stable_seq = stable_seq_;
  rep.scan = journal_->scan(stable_seq_, apply);
  ++stats_.recoveries;
  USK_TRACEPOINT("store", "recover", rep.scan.units_applied,
                 rep.scan.units_discarded);
  return rep;
}

StoreStats Store::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::uint64_t Store::stable_seq() const {
  std::lock_guard lk(mu_);
  return stable_seq_;
}

Store::Region Store::classify_offset(std::uint64_t byte_off) const {
  if (byte_off < kBlockBytes) return Region::kSuperblock;
  if (byte_off < (1 + cfg_.journal_blocks) * kBlockBytes) {
    return Region::kJournal;
  }
  return Region::kData;
}

}  // namespace usk::store
