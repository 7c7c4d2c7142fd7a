#include "store/journal.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "fault/kfail.hpp"
#include "trace/tracepoint.hpp"

namespace usk::store {

namespace {

constexpr std::uint64_t kUnitMagic = 0x55534b4a524e4c31ull;  // "USKJRNL1"

// Word-at-a-time FNV-1a variant: the classic byte loop is a serial
// 64-bit-multiply chain (~4 cycles/byte), and commit checksums the unit
// payload twice (per record + whole unit) -- at PostMark rates the byte
// loop alone costs more than the fsyncs. Folding 8 bytes per multiply
// keeps every input bit feeding the product (XOR then odd-prime multiply
// is bijective per step, so any flipped or zeroed tail changes the sum)
// at an eighth of the chain length.
std::uint64_t fnv1a_mix(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  constexpr std::uint64_t kPrime = 1099511628211ull;
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

constexpr std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~7ull; }

// On-media layout. Both structs are written/read via memcpy so the
// static_asserts pin the format.
struct CommitHeader {
  std::uint64_t magic;
  std::uint64_t unit_seq;
  std::uint64_t first_rec_seq;
  std::uint32_t n_records;
  std::uint32_t n_txns;
  std::uint64_t payload_bytes;
  std::uint64_t payload_checksum;
  std::uint64_t header_checksum;
};
static_assert(sizeof(CommitHeader) == 56, "on-media commit header format");

struct RecHeader {
  std::uint64_t checksum;
  std::uint32_t target;
  std::uint32_t len;
  std::uint32_t kind;
  std::uint32_t pad;
};
static_assert(sizeof(RecHeader) == 24, "on-media record header format");

std::uint64_t record_checksum(const JRecord& r) {
  std::uint64_t h = kFnvBasis;
  std::uint32_t target = r.target;
  std::uint32_t len = static_cast<std::uint32_t>(r.payload.size());
  std::uint32_t kind = r.kind;
  h = fnv1a_mix(h, &target, sizeof(target));
  h = fnv1a_mix(h, &len, sizeof(len));
  h = fnv1a_mix(h, &kind, sizeof(kind));
  h = fnv1a_mix(h, r.payload.data(), r.payload.size());
  return h;
}

std::uint64_t header_checksum(const CommitHeader& h) {
  return fnv1a_mix(kFnvBasis, &h,
                   sizeof(CommitHeader) - sizeof(std::uint64_t));
}

std::uint64_t serialized_record_bytes(const JRecord& r) {
  return sizeof(RecHeader) + align8(r.payload.size());
}

}  // namespace

std::uint8_t* JTxn::record(std::uint8_t kind, std::uint32_t target,
                           std::size_t len) {
  std::vector<std::uint8_t>& payload = find_or_add(kind, target).payload;
  payload.resize(len);
  return payload.data();
}

void JTxn::append(std::uint8_t kind, std::uint32_t target, const void* data,
                  std::size_t len) {
  std::uint8_t* dst = record(kind, target, len);
  if (len != 0) std::memcpy(dst, data, len);
}

void JTxn::clear() {
  n_ = 0;
  std::fill(index_.begin(), index_.end(), 0u);
}

JRecord& JTxn::find_or_add(std::uint8_t kind, std::uint32_t target) {
  if ((n_ + 1) * 2 > index_.size()) grow_index();
  const std::uint64_t key = (std::uint64_t{kind} << 32) | target;
  const std::size_t mask = index_.size() - 1;
  // Fibonacci hashing, then linear probing: the index stays at most half
  // full, so a probe ends after a slot or two.
  for (std::size_t i = ((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;;
       i = (i + 1) & mask) {
    std::uint32_t& slot = index_[i];
    if (slot == 0) {  // first appearance: claim the next record slot
      if (n_ == recs_.size()) recs_.emplace_back();
      JRecord& r = recs_[n_];
      r.kind = kind;
      r.target = target;
      slot = static_cast<std::uint32_t>(++n_);
      return r;
    }
    JRecord& r = recs_[slot - 1];
    if (r.kind == kind && r.target == target) return r;
  }
}

void JTxn::grow_index() {
  index_.assign(std::max<std::size_t>(16, index_.size() * 2), 0u);
  const std::size_t live = n_;
  n_ = 0;
  // Re-inserting in order hands every record back its own slot.
  for (std::size_t k = 0; k < live; ++k) {
    (void)find_or_add(recs_[k].kind, recs_[k].target);
  }
}

GroupCommitJournal::GroupCommitJournal(BackingImage& img,
                                       std::uint64_t region_off,
                                       std::uint64_t region_bytes,
                                       JournalConfig cfg)
    : img_(img), region_off_(region_off), region_bytes_(region_bytes),
      cfg_(cfg) {}

std::uint64_t GroupCommitJournal::unit_bytes(const JTxn& txn) {
  std::uint64_t n = sizeof(CommitHeader);
  for (const JRecord& r : txn.records()) n += serialized_record_bytes(r);
  return n;
}

Result<std::uint64_t> GroupCommitJournal::commit(const JTxn& txn) {
  if (txn.empty()) {
    std::lock_guard lk(mu_);
    return unit_seq_;
  }
  TxnResult res;
  std::unique_lock lk(mu_);
  pending_.push_back(PendingTxn{txn.records(), &res});
  while (!res.done) {
    if (!flushing_ && !pending_.empty()) {
      // This thread becomes the leader for the next commit unit.
      flushing_ = true;
      if (cfg_.group_commit && cfg_.leader_wait_us > 0) {
        // Linger briefly so stragglers can join the batch; the queue is
        // re-read after the wait.
        lk.unlock();
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.leader_wait_us));
        lk.lock();
      }
      // batch_ is empty here; swapping hands pending_ its spare capacity.
      if (cfg_.group_commit) {
        batch_.swap(pending_);
      } else {
        batch_.push_back(pending_.front());
        pending_.erase(pending_.begin());
      }
      std::uint64_t need = sizeof(CommitHeader);
      std::uint64_t recs = 0;
      for (const PendingTxn& t : batch_) {
        for (const JRecord& r : t.records) need += serialized_record_bytes(r);
        recs += t.records.size();
      }
      // Every exit below sets each committer's done under mu_; after that
      // its records and result slot may be gone, so batch_ is cleared.
      if (tail_ + need > region_bytes_) {
        // Out of journal space: fail the whole batch with ENOSPC; the
        // store checkpoints (reclaiming the region) and retries.
        ++stats_.enospc_batches;
        for (PendingTxn& t : batch_) {
          t.res->err = Errno::kENOSPC;
          t.res->done = true;
        }
        batch_.clear();
        flushing_ = false;
        wq_.wake_all();
        continue;
      }
      const std::uint64_t seq = ++unit_seq_;
      const std::uint64_t tail = tail_;
      lk.unlock();
      Result<std::uint64_t> wr =
          write_unit(tail, seq, need - sizeof(CommitHeader),
                     static_cast<std::uint32_t>(recs));
      lk.lock();
      if (wr) {
        tail_ = tail + need;
        stats_.txns_committed += batch_.size();
        stats_.commit_units += 1;
        stats_.records_written += recs;
        stats_.bytes_written += need;
        if (batch_.size() > stats_.max_batch_txns) {
          stats_.max_batch_txns = batch_.size();
        }
        for (PendingTxn& t : batch_) {
          t.res->seq = seq;
          t.res->done = true;
        }
      } else {
        // The unit never became durable (write or fsync failed): every
        // transaction in the batch observes the error. The seq is burned
        // -- recovery only requires monotonicity, not density -- and the
        // tail stays put, so a later unit overwrites the failed bytes.
        for (PendingTxn& t : batch_) {
          t.res->err = wr.error();
          t.res->done = true;
        }
      }
      batch_.clear();
      flushing_ = false;
      wq_.wake_all();
    } else {
      // Follower wait for the in-flight leader. The token is taken and
      // the conditions re-checked under mu_ -- the same lock every waker
      // (batch done, ENOSPC fail, leadership handoff) mutates them
      // under -- so the park cannot miss a wake. No task is passed:
      // this is the one uninterruptible wait (see journal.hpp).
      sched::WaitQueue::Token tok = wq_.prepare();
      if (res.done || (!flushing_ && !pending_.empty())) continue;
      lk.unlock();
      wq_.wait(tok, nullptr);
      lk.lock();
    }
  }
  if (res.err != Errno::kOk) return res.err;
  return res.seq;
}

Result<std::uint64_t> GroupCommitJournal::write_unit(
    std::uint64_t tail, std::uint64_t seq, std::uint64_t payload_bytes,
    std::uint32_t n_records) {
  // Serialize the whole unit: header placeholder, then every record of
  // every transaction in arrival order, then the zeroed end mark when it
  // fits in the region (see journal.hpp). The buffer only grows and is
  // never zeroed: every byte written is set below, the alignment padding
  // included.
  const std::uint64_t unit_bytes = sizeof(CommitHeader) + payload_bytes;
  const std::uint64_t end_mark =
      tail + unit_bytes + sizeof(CommitHeader) <= region_bytes_
          ? sizeof(CommitHeader)
          : 0;
  if (unit_buf_.size() < unit_bytes + end_mark) {
    unit_buf_.resize(unit_bytes + end_mark);
  }
  std::uint8_t* const buf = unit_buf_.data();
  std::uint64_t off = sizeof(CommitHeader);
  std::uint64_t first_rec_seq = rec_seq_ + 1;
  for (const PendingTxn& t : batch_) {
    for (const JRecord& r : t.records) {
      RecHeader rh{};
      rh.checksum = record_checksum(r);
      rh.target = r.target;
      rh.len = static_cast<std::uint32_t>(r.payload.size());
      rh.kind = r.kind;
      std::memcpy(buf + off, &rh, sizeof(rh));
      std::memcpy(buf + off + sizeof(rh), r.payload.data(), r.payload.size());
      const std::uint64_t pad =
          align8(r.payload.size()) - r.payload.size();
      std::memset(buf + off + sizeof(rh) + r.payload.size(), 0, pad);
      off += serialized_record_bytes(r);
      ++rec_seq_;
    }
  }
  std::memset(buf + unit_bytes, 0, end_mark);
  CommitHeader h{};
  h.magic = kUnitMagic;
  h.unit_seq = seq;
  h.first_rec_seq = first_rec_seq;
  h.n_records = n_records;
  h.n_txns = static_cast<std::uint32_t>(batch_.size());
  h.payload_bytes = payload_bytes;
  h.payload_checksum =
      fnv1a_mix(kFnvBasis, buf + sizeof(CommitHeader), payload_bytes);
  h.header_checksum = header_checksum(h);
  std::memcpy(buf, &h, sizeof(h));

  const std::uint64_t base = region_off_ + tail;
  const std::uint8_t* payload = buf + sizeof(CommitHeader);
  const std::uint64_t payload_write = payload_bytes + end_mark;
  // Records (and the end mark) first. The header is the unit's validity
  // bit: until it is on the medium, the records are garbage to recovery.
  bool payload_torn = false;
  if (auto f = USK_FAIL_POINT(fault::Site::kDiskTorn);
      f.fail || f.transient) {
    // Torn payload: the second half of the records reaches the medium
    // garbled (every byte inverted, so the tear can never match the real
    // bytes). SILENT -- the header still goes out and the commit appears
    // to succeed; recovery's payload checksum discards the unit (and
    // everything after it).
    ++stats_.torn_payloads;
    std::vector<std::uint8_t> torn(payload, payload + payload_write);
    for (std::uint64_t i = payload_bytes / 2; i < payload_bytes; ++i) {
      torn[i] = static_cast<std::uint8_t>(~torn[i]);
    }
    USK_TRY(img_.write_bytes(base + sizeof(CommitHeader), torn.data(),
                             payload_write));
    // Transient: the retry rewrites the whole payload below.
    payload_torn = f.fail;
  }
  if (!payload_torn) {
    USK_TRY(img_.write_bytes(base + sizeof(CommitHeader), payload,
                             payload_write));
  }
  if (auto f = USK_FAIL_POINT(fault::Site::kStoreTornHeader);
      f.fail || f.transient) {
    // Torn commit header: only the first half reaches the medium. Like
    // the torn payload this is SILENT -- the commit appears to succeed
    // and the damage only shows at recovery, where the unit (and
    // everything after it) is discarded: committed-prefix semantics.
    ++stats_.torn_headers;
    USK_TRY(img_.write_bytes(base, buf, sizeof(CommitHeader) / 2));
    if (f.fail) {
      USK_TRY(img_.flush());
      USK_TRACEPOINT("store", "torn_commit_header", h.unit_seq, tail);
      return h.unit_seq;
    }
    // Transient: the retry rewrites the full header below.
  }
  USK_TRY(img_.write_bytes(base, buf, sizeof(CommitHeader)));
  // The single ordered flush the whole batch shares.
  USK_TRY(img_.flush());
  USK_TRACEPOINT("store", "commit_unit", h.unit_seq, n_records);
  return h.unit_seq;
}

std::uint64_t GroupCommitJournal::tail_bytes() const {
  std::lock_guard lk(mu_);
  return tail_;
}

void GroupCommitJournal::reset_tail() {
  std::lock_guard lk(mu_);
  tail_ = 0;
  ++stats_.resets;
}

std::uint64_t GroupCommitJournal::durable_seq() const {
  std::lock_guard lk(mu_);
  return unit_seq_;
}

JournalStats GroupCommitJournal::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

GroupCommitJournal::ScanReport GroupCommitJournal::scan(
    std::uint64_t min_seq,
    const std::function<void(const JRecord&, std::uint64_t)>& apply) {
  std::lock_guard lk(mu_);
  ScanReport rep;
  std::uint64_t off = 0;
  std::uint64_t prev_seq = min_seq;
  while (off + sizeof(CommitHeader) <= region_bytes_) {
    CommitHeader h{};
    if (!img_.read_bytes(region_off_ + off, &h, sizeof(h))) break;
    if (h.magic != kUnitMagic || h.header_checksum != header_checksum(h)) {
      // Zeroed slot (clean end of log: a fresh region or the end mark the
      // last unit wrote) vs torn header: either way the usable log ends
      // here. Count a discard only if the bytes are not all-zero, i.e.
      // something was started and lost.
      if (h.magic != 0 || h.unit_seq != 0 || h.header_checksum != 0) {
        rep.torn = true;
        rep.units_discarded += 1;
      }
      break;
    }
    if (h.unit_seq <= prev_seq) break;  // stale unit from a prior epoch
    if (off + sizeof(CommitHeader) + h.payload_bytes > region_bytes_) {
      rep.torn = true;
      rep.units_discarded += 1;
      break;
    }
    std::vector<std::uint8_t> payload(h.payload_bytes);
    if (!img_.read_bytes(region_off_ + off + sizeof(CommitHeader),
                         payload.data(), payload.size())) {
      break;
    }
    if (fnv1a_mix(kFnvBasis, payload.data(), payload.size()) !=
        h.payload_checksum) {
      rep.torn = true;
      rep.units_discarded += 1;
      break;
    }
    // Parse + verify every record BEFORE applying any (no partial units).
    std::vector<JRecord> recs;
    recs.reserve(h.n_records);
    std::uint64_t p = 0;
    bool ok = true;
    for (std::uint32_t i = 0; i < h.n_records; ++i) {
      if (p + sizeof(RecHeader) > payload.size()) { ok = false; break; }
      RecHeader rh{};
      std::memcpy(&rh, payload.data() + p, sizeof(rh));
      if (p + sizeof(RecHeader) + align8(rh.len) > payload.size()) {
        ok = false;
        break;
      }
      JRecord r;
      r.kind = static_cast<std::uint8_t>(rh.kind);
      r.target = rh.target;
      r.payload.assign(payload.data() + p + sizeof(RecHeader),
                       payload.data() + p + sizeof(RecHeader) + rh.len);
      if (record_checksum(r) != rh.checksum) { ok = false; break; }
      recs.push_back(std::move(r));
      p += sizeof(RecHeader) + align8(rh.len);
    }
    if (!ok) {
      rep.torn = true;
      rep.units_discarded += 1;
      break;
    }
    for (const JRecord& r : recs) {
      apply(r, h.unit_seq);
      ++rep.records_applied;
    }
    rep.units_applied += 1;
    rep.last_seq = h.unit_seq;
    prev_seq = h.unit_seq;
    off += sizeof(CommitHeader) + h.payload_bytes;
  }
  // Future commits append after the survivor log and keep seqs monotonic.
  tail_ = off;
  if (rep.last_seq > unit_seq_) unit_seq_ = rep.last_seq;
  return rep;
}

}  // namespace usk::store
