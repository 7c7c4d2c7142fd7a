// Group-committed journal over the backing image.
//
// JournalFs's in-memory journal appends one record per metadata update
// and never pays a durability cost (it is the E5 cost model, never
// replayed). This journal is the real thing and the one recovery path:
// transactions from CONCURRENT writers are batched into one commit
// unit -- records serialized sequentially into the image's journal
// region, closed by a checksummed commit header, made durable by a
// SINGLE fsync -- so N writers share one flush instead of paying N
// (the classic group-commit amortization, bench_storage S1).
//
// Commit protocol (leader/follower, one mutex + condvar):
//   * commit(txn) enqueues the closed transaction and waits;
//   * the first waiter finding no flush in progress becomes the LEADER:
//     it takes the whole pending queue (optionally waiting
//     leader_wait_us for stragglers), serializes every transaction into
//     one unit, writes records then header, fsyncs once, and wakes all;
//   * followers whose transactions rode the batch return as soon as the
//     leader publishes durability. While the leader's fsync runs, new
//     committers pile into the queue -- the next leader takes them all,
//     so the slower the medium, the bigger the batch.
//
// On-disk unit format (all little-endian, FNV-1a checksums):
//   CommitHeader { magic, unit_seq, first_rec_seq, n_records, n_txns,
//                  payload_bytes, payload_checksum, header_checksum }
//   followed by payload_bytes of records, each
//   RecHeader { rec_checksum, target, len, kind } + payload (8-aligned).
//
// A unit is committed iff its header validates AND the payload checksum
// matches: the header is written AFTER the records, and the checksum
// covers reordering by the medium, so one ordered flush suffices.
// Recovery scans units in order, requiring strictly increasing unit_seq;
// the first invalid unit ends the usable log (committed-prefix
// semantics). Two kfail sites tear a unit as it is written, both
// silently -- the commit is acked and the damage only shows at recovery:
// store.torn_commit_header tears the header, disk.torn the second half of
// the record payload.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "base/errno.hpp"
#include "sched/waitqueue.hpp"
#include "store/image.hpp"

namespace usk::store {

/// One journaled record: an opaque (kind, target, payload) triple. The
/// filesystem bridge maps these onto JournalFs's JRecKind redo records;
/// the journal itself never interprets them.
struct JRecord {
  std::uint8_t kind = 0;
  std::uint32_t target = 0;
  std::vector<std::uint8_t> payload;
};

/// A transaction under construction. Built by one thread, then moved
/// into commit(); empty transactions commit as a no-op without queueing.
struct JTxn {
  std::vector<JRecord> records;
  [[nodiscard]] bool empty() const { return records.empty(); }
  void append(std::uint8_t kind, std::uint32_t target, const void* data,
              std::size_t len) {
    JRecord r;
    r.kind = kind;
    r.target = target;
    r.payload.assign(static_cast<const std::uint8_t*>(data),
                     static_cast<const std::uint8_t*>(data) + len);
    records.push_back(std::move(r));
  }
};

struct JournalStats {
  std::uint64_t txns_committed = 0;
  std::uint64_t commit_units = 0;   ///< units written (== fsyncs issued here)
  std::uint64_t records_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t max_batch_txns = 0; ///< largest single commit unit (txns)
  std::uint64_t torn_headers = 0;   ///< kfail store.torn_commit_header hits
  std::uint64_t torn_payloads = 0;  ///< kfail disk.torn hits
  std::uint64_t resets = 0;         ///< checkpoint tail resets

  [[nodiscard]] double txns_per_flush() const {
    return commit_units ? static_cast<double>(txns_committed) /
                              static_cast<double>(commit_units)
                        : 0.0;
  }
};

struct JournalConfig {
  bool group_commit = true;       ///< false: one unit + fsync per txn
  std::uint32_t leader_wait_us = 0; ///< leader lingers for stragglers
};

class GroupCommitJournal {
 public:
  /// The journal owns bytes [region_off, region_off + region_bytes) of
  /// `img`. Offsets are absolute image bytes, 8-aligned.
  GroupCommitJournal(BackingImage& img, std::uint64_t region_off,
                     std::uint64_t region_bytes,
                     JournalConfig cfg = JournalConfig{});

  GroupCommitJournal(const GroupCommitJournal&) = delete;
  GroupCommitJournal& operator=(const GroupCommitJournal&) = delete;

  /// Commit a closed transaction; blocks until its records are durable
  /// (or the whole batch failed). Returns the commit unit's seq.
  /// kENOSPC: the transaction cannot fit in the remaining region -- the
  /// caller must checkpoint (reset_tail) and retry.
  [[nodiscard]] Result<std::uint64_t> commit(JTxn&& txn);

  /// Bytes consumed in the region (next unit starts here).
  [[nodiscard]] std::uint64_t tail_bytes() const;
  [[nodiscard]] std::uint64_t region_bytes() const { return region_bytes_; }
  /// Serialized size of `txn` including the unit header.
  [[nodiscard]] static std::uint64_t unit_bytes(const JTxn& txn);

  /// Checkpoint epilogue: the region is reclaimed; unit seqs keep
  /// increasing monotonically across the reset.
  void reset_tail();

  /// Last unit seq made durable by this journal instance.
  [[nodiscard]] std::uint64_t durable_seq() const;

  [[nodiscard]] JournalStats stats() const;

  // --- recovery --------------------------------------------------------------
  struct ScanReport {
    std::uint64_t units_applied = 0;
    std::uint64_t units_discarded = 0;  ///< trailing invalid/torn unit found
    std::uint64_t records_applied = 0;
    std::uint64_t last_seq = 0;  ///< seq of last applied unit
    bool torn = false;           ///< a unit failed validation
  };

  /// Scan the region from the start, applying every record of every valid
  /// unit with unit_seq > min_seq (in order) through `apply`. Validation:
  /// magic, header checksum, strictly increasing unit_seq, payload bounds
  /// + checksum, per-record checksums. The first invalid unit ends the
  /// log. Also positions the tail after the last valid unit so an opened
  /// journal appends where the survivor log ended.
  ScanReport scan(std::uint64_t min_seq,
                  const std::function<void(const JRecord&, std::uint64_t)>&
                      apply);

 private:
  /// Per-transaction completion slot, shared between the enqueuing
  /// committer and whichever thread leads its batch.
  struct TxnResult {
    bool done = false;
    Errno err = Errno::kOk;
    std::uint64_t seq = 0;
  };
  struct PendingTxn {
    std::vector<JRecord> records;
    std::shared_ptr<TxnResult> res;
  };

  /// Serialize and persist one batch as unit `seq` at region offset
  /// `tail`; returns the unit seq. Called WITHOUT mu_ held; single-
  /// flighted by flushing_ (mutex handoff orders successive leaders).
  Result<std::uint64_t> write_unit(std::vector<PendingTxn>& batch,
                                   std::uint64_t tail, std::uint64_t seq);

  BackingImage& img_;
  const std::uint64_t region_off_;
  const std::uint64_t region_bytes_;
  JournalConfig cfg_;

  mutable std::mutex mu_;
  /// Follower waits for leader completion. Uninterruptible (D-state):
  /// a committed txn may already be on the medium, so the wait ends only
  /// when a leader marks it done -- never on a kill or a timer. Wakers
  /// hold mu_, waiters take their token under mu_ (the standard
  /// sched::WaitQueue handshake), so wakeups are lossless.
  sched::WaitQueue wq_;
  std::vector<PendingTxn> pending_;
  bool flushing_ = false;
  std::uint64_t tail_ = 0;        ///< bytes used in region
  std::uint64_t unit_seq_ = 0;    ///< last assigned unit seq
  std::uint64_t rec_seq_ = 0;     ///< records ever serialized
  JournalStats stats_;
};

}  // namespace usk::store
