// JournalFs: a block-based journaling filesystem, the reproduction's
// Reiserfs stand-in (paper §3.4 compiles Reiserfs with KGCC).
//
// The entire on-disk state -- inode table, block bitmap, data blocks, and
// the journal -- lives in arrays allocated and *accessed* through a
// pointer Policy. With RawPolicy the accesses are plain pointers (the
// "vanilla GCC" build); with the BCC policy every dereference and every
// pointer arithmetic step consults the bounds-checking runtime (the
// "KGCC" build), reproducing the instrumentation cost structure: cheap for
// CPU-bound workloads, brutal for metadata-heavy ones like PostMark.
//
// Layout (all sizes in 4 KiB blocks):
//   inode table  : kMaxInodes DiskInode records
//   block bitmap : one byte per data block
//   data blocks  : file contents + directory blocks (64-byte dirents)
//   journal      : circular log; every metadata update appends a record
//                  containing a copy of the touched block
//
// Every mutating operation is one transaction: its block, inode and
// bitmap records fully redo it, a commit record closes it, and
// checkpoints only happen at transaction boundaries. Without a store the
// in-memory journal is the E5 cost model -- written, never replayed. With
// a store attached (attach_store) every record also flows into the
// store's group-commit journal, and Store::recover replaying those
// records through apply_store_record is the one recovery path.
//
// Files use 12 direct block pointers plus one single-indirect block,
// giving a max file size of 12*4K + 1024*4K = 4.2 MB, plenty for the
// PostMark and compile workloads.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "base/errno.hpp"
#include "fs/filesystem.hpp"
#include "blockdev/buffer_cache.hpp"
#include "fs/memfs.hpp"  // FsCosts
#include "store/store.hpp"

namespace usk::fs {

/// Policy used by un-instrumented builds: plain pointers, plain new[].
struct RawPtrPolicy {
  template <typename T>
  using ptr = T*;

  template <typename T>
  static T* alloc_array(std::size_t n) {
    return new T[n]();
  }
  template <typename T>
  static void free_array(T* p, std::size_t /*n*/) {
    delete[] p;
  }
  /// Reinterpret a byte region as `n` elements of T (used for the
  /// single-indirect block-pointer table).
  template <typename T>
  static T* cast_bytes(std::uint8_t* p, std::size_t /*n*/) {
    return reinterpret_cast<T*>(p);
  }
  static constexpr const char* kName = "raw";
};

struct JournalFsStats {
  std::uint64_t journal_records = 0;
  std::uint64_t journal_commits = 0;
  std::uint64_t blocks_allocated = 0;
  std::uint64_t blocks_freed = 0;
  std::uint64_t bitmap_scan_steps = 0;
  std::uint64_t store_commits = 0;   ///< group-commit units paid (store mode)
  std::uint64_t store_home_writes = 0; ///< post-commit home blocks dirtied
};

template <class Policy = RawPtrPolicy>
class JournalFs final : public FileSystem {
 public:
  static constexpr std::size_t kBlockSize = 4096;
  static constexpr std::size_t kDirect = 12;
  static constexpr std::size_t kPtrsPerBlock = kBlockSize / sizeof(std::uint32_t);
  static constexpr std::size_t kDirentSize = 64;
  static constexpr std::size_t kDirentsPerBlock = kBlockSize / kDirentSize;
  static constexpr std::size_t kMaxNameLen = 57;

  template <typename T>
  using Ptr = typename Policy::template ptr<T>;

  struct DiskInode {
    std::uint8_t used;
    std::uint8_t type;  // FileType
    std::uint16_t nlink;
    std::uint32_t mode;
    std::uint64_t size;
    std::uint32_t direct[kDirect];
    std::uint32_t indirect;
    std::uint64_t atime, mtime, ctime;
  };

  struct Dirent {
    std::uint32_t ino;
    std::uint8_t used;
    std::uint8_t namelen;
    char name[kMaxNameLen + 1];
  };
  static_assert(sizeof(Dirent) <= kDirentSize);

  /// What a journal record redoes at recovery.
  enum class JRecKind : std::uint8_t {
    kBlock = 0,   ///< post-image of data block `target`
    kInode = 1,   ///< post-image of inode `target`
    kBitmap = 2,  ///< bitmap delta: block `target` -> payload[0]
    kCommit = 3,  ///< transaction commit record (the commit-block write)
  };

  struct JournalRecord {
    std::uint32_t target;
    std::uint32_t len;  ///< valid payload bytes
    std::uint8_t kind;
    std::uint8_t payload[kBlockSize];
  };

  JournalFs(std::size_t max_inodes, std::size_t data_blocks,
            std::size_t journal_slots, std::size_t commit_interval = 64)
      : max_inodes_(max_inodes),
        data_blocks_(data_blocks),
        journal_slots_(journal_slots),
        commit_interval_(commit_interval) {
    inodes_ = Policy::template alloc_array<DiskInode>(max_inodes_);
    bitmap_ = Policy::template alloc_array<std::uint8_t>(data_blocks_);
    data_ = Policy::template alloc_array<std::uint8_t>(data_blocks_ *
                                                       kBlockSize);
    journal_ = Policy::template alloc_array<JournalRecord>(journal_slots_);

    // Format: inode 0 is the root directory.
    DiskInode root{};
    root.used = 1;
    root.type = static_cast<std::uint8_t>(FileType::kDirectory);
    root.nlink = 2;
    root.mode = 0755;
    inodes_[0] = root;
  }

  ~JournalFs() override {
    Policy::template free_array<DiskInode>(inodes_, max_inodes_);
    Policy::template free_array<std::uint8_t>(bitmap_, data_blocks_);
    Policy::template free_array<std::uint8_t>(data_, data_blocks_ * kBlockSize);
    Policy::template free_array<JournalRecord>(journal_, journal_slots_);
  }

  JournalFs(const JournalFs&) = delete;
  JournalFs& operator=(const JournalFs&) = delete;

  [[nodiscard]] InodeNum root() const override { return 1; }
  [[nodiscard]] const char* fstype() const override { return "journalfs"; }

  /// Charge hook: work units per operation (same contract as MemFs).
  void set_cost_hook(std::function<void(std::uint64_t)> hook) {
    charge_ = std::move(hook);
  }
  void set_costs(const FsCosts& c) { costs_ = c; }
  /// Extra units per journal record (the commit path's write cost).
  void set_journal_cost(std::uint64_t units) { journal_cost_ = units; }

  /// Attach a buffer cache over a simulated disk. The filesystem's block
  /// numbers map directly to LBAs in a data region; the journal occupies
  /// its own contiguous strip, so journal appends are SEQUENTIAL disk
  /// writes while checkpointing data blocks seeks -- the journaling
  /// trade-off, physically modelled.
  void set_io_model(blockdev::BufferCache* cache) { io_ = cache; }

  Result<InodeNum> lookup(InodeNum dir, std::string_view name) override {
    charge(costs_.lookup);
    DiskInode* d = dir_inode(dir);
    if (d == nullptr) return Errno::kENOTDIR;
    Dirent de;
    if (!find_dirent(*d, name, &de, nullptr, nullptr)) return Errno::kENOENT;
    return static_cast<InodeNum>(de.ino);
  }

  Result<InodeNum> create(InodeNum dir, std::string_view name, FileType type,
                          std::uint32_t mode) override {
    charge(costs_.create);
    TxnScope txn(*this);
    if (name.empty() || name.size() > kMaxNameLen) return Errno::kENAMETOOLONG;
    DiskInode* d = dir_inode(dir);
    if (d == nullptr) return Errno::kENOTDIR;
    if (find_dirent(*d, name, nullptr, nullptr, nullptr)) {
      return Errno::kEEXIST;
    }
    // Allocate an inode slot.
    std::size_t idx = 0;
    for (; idx < max_inodes_; ++idx) {
      if (!inodes_[idx].used) break;
    }
    if (idx == max_inodes_) return Errno::kENOSPC;

    DiskInode node{};
    node.used = 1;
    node.type = static_cast<std::uint8_t>(type);
    node.nlink = type == FileType::kDirectory ? 2 : 1;
    node.mode = mode;
    node.atime = node.mtime = node.ctime = ++clock_;
    inodes_[idx] = node;

    Errno e = add_dirent(*d, name, static_cast<std::uint32_t>(idx + 1));
    if (e != Errno::kOk) {
      inodes_[idx].used = 0;
      return e;
    }
    if (type == FileType::kDirectory) ++d->nlink;
    d->mtime = ++clock_;
    journal_inode(dir);
    journal_inode(idx + 1);
    return static_cast<InodeNum>(idx + 1);
  }

  Result<void> unlink(InodeNum dir, std::string_view name) override {
    charge(costs_.remove);
    TxnScope txn(*this);
    return remove_entry(dir, name, /*want_dir=*/false);
  }

  Result<void> link(InodeNum dir, std::string_view name, InodeNum target) override {
    charge(costs_.create);
    TxnScope txn(*this);
    if (name.empty() || name.size() > kMaxNameLen) return Errno::kENAMETOOLONG;
    DiskInode* d = dir_inode(dir);
    if (d == nullptr) return Errno::kENOTDIR;
    DiskInode* t = inode(target);
    if (t == nullptr) return Errno::kENOENT;
    if (file_type(*t) == FileType::kDirectory) return Errno::kEPERM;
    if (find_dirent(*d, name, nullptr, nullptr, nullptr)) {
      return Errno::kEEXIST;
    }
    Errno e = add_dirent(*d, name, static_cast<std::uint32_t>(target));
    if (e != Errno::kOk) return e;
    ++t->nlink;
    t->ctime = ++clock_;
    d->mtime = ++clock_;
    journal_inode(dir);
    journal_inode(target);
    return Errno::kOk;
  }

  Result<void> chmod(InodeNum ino, std::uint32_t mode) override {
    charge(costs_.getattr);
    TxnScope txn(*this);
    DiskInode* n = inode(ino);
    if (n == nullptr) return Errno::kENOENT;
    n->mode = mode;
    n->ctime = ++clock_;
    journal_inode(ino);
    return Errno::kOk;
  }

  Result<void> rmdir(InodeNum dir, std::string_view name) override {
    charge(costs_.remove);
    TxnScope txn(*this);
    return remove_entry(dir, name, /*want_dir=*/true);
  }

  Result<void> rename(InodeNum src_dir, std::string_view src_name, InodeNum dst_dir,
               std::string_view dst_name) override {
    charge(costs_.rename);
    TxnScope txn(*this);
    if (dst_name.size() > kMaxNameLen) return Errno::kENAMETOOLONG;
    DiskInode* sd = dir_inode(src_dir);
    DiskInode* dd = dir_inode(dst_dir);
    if (sd == nullptr || dd == nullptr) return Errno::kENOTDIR;
    Dirent de;
    std::uint32_t blk = 0;
    std::size_t slot = 0;
    if (!find_dirent(*sd, src_name, &de, &blk, &slot)) return Errno::kENOENT;

    // Drop a pre-existing destination (regular files / empty dirs only).
    Dirent old;
    if (find_dirent(*dd, dst_name, &old, nullptr, nullptr)) {
      // POSIX: renaming onto the same inode is a successful no-op.
      if (old.ino == de.ino) return Errno::kOk;
      Errno e = remove_entry(dst_dir, dst_name,
                             inode_type(old.ino) == FileType::kDirectory);
      if (e != Errno::kOk) return e;
    }
    // Remove the source slot, then add under the new name.
    erase_dirent_slot(blk, slot);
    sd->mtime = ++clock_;
    Errno e = add_dirent(*dd, dst_name, de.ino);
    if (e != Errno::kOk) return e;
    if (inode_type(de.ino) == FileType::kDirectory && src_dir != dst_dir) {
      --sd->nlink;
      ++dd->nlink;
    }
    dd->mtime = ++clock_;
    journal_inode(src_dir);
    journal_inode(dst_dir);
    return Errno::kOk;
  }

  Result<std::size_t> read(InodeNum ino, std::uint64_t offset,
                           std::span<std::byte> out) override {
    charge(costs_.data_per_kib * (out.size() + 1023) / 1024 + 8);
    DiskInode* n = inode(ino);
    if (n == nullptr) return Errno::kENOENT;
    if (file_type(*n) == FileType::kDirectory) return Errno::kEISDIR;
    if (offset >= n->size) return std::size_t{0};
    std::size_t len =
        std::min<std::size_t>(out.size(), n->size - offset);
    std::size_t done = 0;
    while (done < len) {
      std::uint64_t pos = offset + done;
      std::uint32_t blk = block_of(*n, pos / kBlockSize, /*alloc=*/false);
      std::size_t boff = pos % kBlockSize;
      std::size_t chunk = std::min(len - done, kBlockSize - boff);
      if (blk == 0) {
        std::memset(out.data() + done, 0, chunk);  // hole
      } else {
        if (Result<void> io = io_touch_data(blk, /*write=*/false); !io.ok()) {
          // Partial read before the media error still counts (POSIX).
          return done > 0 ? Result<std::size_t>(done)
                          : Result<std::size_t>(io.error());
        }
        Ptr<std::uint8_t> src = data_ + (blk - 1) * kBlockSize + boff;
        auto* dst = reinterpret_cast<std::uint8_t*>(out.data() + done);
        for (std::size_t i = 0; i < chunk; ++i) dst[i] = src[i];
      }
      done += chunk;
    }
    n->atime = ++clock_;
    return len;
  }

  Result<std::size_t> write(InodeNum ino, std::uint64_t offset,
                            std::span<const std::byte> in) override {
    charge(costs_.data_per_kib * (in.size() + 1023) / 1024 + 10);
    TxnScope txn(*this);
    DiskInode* n = inode(ino);
    if (n == nullptr) return Errno::kENOENT;
    if (file_type(*n) == FileType::kDirectory) return Errno::kEISDIR;
    std::size_t max_file = (kDirect + kPtrsPerBlock) * kBlockSize;
    if (offset + in.size() > max_file) return Errno::kEFBIG;
    std::size_t done = 0;
    while (done < in.size()) {
      std::uint64_t pos = offset + done;
      std::uint32_t blk = block_of(*n, pos / kBlockSize, /*alloc=*/true);
      if (blk == 0) return done > 0 ? Result<std::size_t>(done)
                                    : Result<std::size_t>(Errno::kENOSPC);
      std::size_t boff = pos % kBlockSize;
      std::size_t chunk = std::min(in.size() - done, kBlockSize - boff);
      if (Result<void> io = io_touch_data(blk, /*write=*/true); !io.ok()) {
        return done > 0 ? Result<std::size_t>(done)
                        : Result<std::size_t>(io.error());
      }
      Ptr<std::uint8_t> dst = data_ + (blk - 1) * kBlockSize + boff;
      const auto* src = reinterpret_cast<const std::uint8_t*>(in.data() + done);
      for (std::size_t i = 0; i < chunk; ++i) dst[i] = src[i];
      journal_block(blk);
      done += chunk;
    }
    n->size = std::max<std::uint64_t>(n->size, offset + in.size());
    n->mtime = ++clock_;
    journal_inode(ino);
    return in.size();
  }

  Result<void> truncate(InodeNum ino, std::uint64_t size) override {
    charge(costs_.truncate);
    TxnScope txn(*this);
    DiskInode* n = inode(ino);
    if (n == nullptr) return Errno::kENOENT;
    if (file_type(*n) == FileType::kDirectory) return Errno::kEISDIR;
    if (size < n->size) {
      // Free whole blocks past the new end.
      std::size_t keep = (size + kBlockSize - 1) / kBlockSize;
      free_blocks_from(*n, keep);
    }
    n->size = size;
    n->mtime = ++clock_;
    journal_inode(ino);
    return Errno::kOk;
  }

  Result<void> getattr(InodeNum ino, StatBuf* st) override {
    charge(costs_.getattr);
    DiskInode* n = inode(ino);
    if (n == nullptr) return Errno::kENOENT;
    st->ino = ino;
    st->type = file_type(*n);
    st->mode = n->mode;
    st->nlink = n->nlink;
    st->size = n->size;
    st->blocks = (n->size + 511) / 512;
    st->atime = n->atime;
    st->mtime = n->mtime;
    st->ctime = n->ctime;
    return Errno::kOk;
  }

  Result<std::vector<DirEntry>> readdir(InodeNum dir) override {
    charge(costs_.readdir_base);
    DiskInode* d = dir_inode(dir);
    if (d == nullptr) return Errno::kENOTDIR;
    std::vector<DirEntry> out;
    std::size_t nblocks = (d->size + kBlockSize - 1) / kBlockSize;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::uint32_t blk = block_of(*d, b, false);
      if (blk == 0) continue;
      for (std::size_t s = 0; s < kDirentsPerBlock; ++s) {
        Dirent de = load_dirent(blk, s);
        if (de.used == 0) continue;
        out.push_back(DirEntry{std::string(de.name, de.namelen),
                               static_cast<InodeNum>(de.ino),
                               inode_type(de.ino)});
      }
    }
    d->atime = ++clock_;
    std::sort(out.begin(), out.end(),
              [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
    return out;
  }

  Result<void> sync() override { return commit_journal(); }

  /// fsync(2)/fdatasync(2): in store mode, commit the running transaction
  /// batch to the group-commit journal (ext3-style -- the journal is
  /// shared, so this makes every pending metadata update durable, not
  /// just `ino`'s). Without a store this degrades to sync(). Both
  /// flavours hit the same commit path: this filesystem journals all
  /// metadata, so there is nothing for datasync to skip.
  Result<void> fsync(InodeNum ino, bool datasync) override {
    (void)ino;
    (void)datasync;
    if (store_ != nullptr) return store_commit();
    return sync();
  }

  // --- persistent store attachment (PR-8) -------------------------------------
  /// Attach the persistent storage tier: `cache` becomes the page cache
  /// over the store's backing image (the store wires itself in as the
  /// cache's data plane), every transaction's redo records flow into the
  /// store's group-commit journal, and post-images are written to their
  /// home locations in the image AFTER the commit unit is durable (redo
  /// journaling: background writeback can never push uncommitted state).
  ///
  /// Data-region layout (cache LBA == store data-region block):
  ///   [0, IT)            inode table (DiskInode array, packed)
  ///   [IT, IT+BM)        block bitmap (one byte per fs block)
  ///   [IT+BM, IT+BM+D)   fs data blocks (fs block b at IT+BM+b-1)
  ///
  /// A fresh image is formatted from the in-memory state (root inode) and
  /// checkpointed; an existing image is restored: checkpointed state
  /// loaded from the data region, then the journal's committed prefix
  /// replayed on top (store.recover), then re-checkpointed.
  Result<void> attach_store(store::Store* s, blockdev::BufferCache* cache) {
    if (s == nullptr || cache == nullptr) return Errno::kEINVAL;
    if (s->data_blocks() < total_home_blocks()) return Errno::kEINVAL;
    store_ = s;
    io_ = cache;
    s->attach_cache(cache);
    // Fresh vs existing image: the root inode's home bytes decide.
    std::vector<std::uint8_t> blk(kBlockSize);
    USK_TRY(io_->read_data(0, blk.data()));
    DiskInode root_home{};
    std::memcpy(&root_home, blk.data(), sizeof(DiskInode));
    if (root_home.used != 0) return restore_from_store();
    return format_store();
  }

  [[nodiscard]] bool store_attached() const { return store_ != nullptr; }
  /// Recovery report of the last attach_store() over an existing image.
  [[nodiscard]] const store::Store::RecoveryReport& last_recovery() const {
    return last_recovery_;
  }

  [[nodiscard]] const JournalFsStats& jstats() const { return jstats_; }

  // --- fsck ------------------------------------------------------------------
  /// Offline consistency check, like e2fsck in read-only mode: validates
  /// block ownership (no sharing, no out-of-range pointers), bitmap
  /// consistency in both directions (used-but-unreferenced = leaked,
  /// referenced-but-free = corruption), directory-entry sanity, link
  /// counts, and the root inode.
  struct FsckReport {
    bool clean = true;
    std::vector<std::string> problems;

    void problem(std::string p) {
      clean = false;
      problems.push_back(std::move(p));
    }
  };

  FsckReport fsck() {
    FsckReport rep;
    // 0 = free, otherwise owning inode number (or ~0 for multi-owner).
    std::vector<std::uint64_t> owner(data_blocks_ + 1, 0);

    DiskInode* root_inode = inode(root());
    if (root_inode == nullptr ||
        file_type(*root_inode) != FileType::kDirectory) {
      rep.problem("root inode missing or not a directory");
      return rep;
    }

    auto claim = [&](std::uint32_t blk, InodeNum ino, FsckReport* r) {
      if (blk == 0) return;
      if (blk > data_blocks_) {
        r->problem("inode " + std::to_string(ino) +
                   " references out-of-range block " + std::to_string(blk));
        return;
      }
      if (bitmap_[blk - 1] == 0) {
        r->problem("inode " + std::to_string(ino) + " references free block " +
                   std::to_string(blk));
      }
      if (owner[blk] != 0 && owner[blk] != ino) {
        r->problem("block " + std::to_string(blk) + " shared by inodes " +
                   std::to_string(owner[blk]) + " and " + std::to_string(ino));
      }
      owner[blk] = ino;
    };

    // Pass 1: walk every used inode's block pointers.
    std::vector<std::uint32_t> link_count(max_inodes_ + 1, 0);
    for (std::size_t idx = 0; idx < max_inodes_; ++idx) {
      if (!inodes_[idx].used) continue;
      DiskInode n = inodes_[idx];
      InodeNum ino = idx + 1;
      for (std::size_t d = 0; d < kDirect; ++d) claim(n.direct[d], ino, &rep);
      if (n.indirect != 0) {
        claim(n.indirect, ino, &rep);
        if (n.indirect <= data_blocks_) {
          Ptr<std::uint32_t> table = reinterpret_cast_policy(n.indirect);
          for (std::size_t i = 0; i < kPtrsPerBlock; ++i) {
            claim(table[i], ino, &rep);
          }
        }
      }
    }

    // Pass 2: directory entries reference used inodes; count links.
    for (std::size_t idx = 0; idx < max_inodes_; ++idx) {
      if (!inodes_[idx].used) continue;
      if (file_type(inodes_[idx]) != FileType::kDirectory) continue;
      DiskInode dir = inodes_[idx];
      std::size_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
      for (std::size_t b = 0; b < nblocks; ++b) {
        std::uint32_t blk = block_of(dir, b, false);
        if (blk == 0 || blk > data_blocks_) continue;
        for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
          Dirent de = load_dirent(blk, slot);
          if (!de.used) continue;
          if (de.namelen > kMaxNameLen) {
            rep.problem("directory " + std::to_string(idx + 1) +
                        " has dirent with bad name length");
            continue;
          }
          if (de.ino == 0 || de.ino > max_inodes_ ||
              !inodes_[de.ino - 1].used) {
            rep.problem("directory " + std::to_string(idx + 1) +
                        " entry '" + std::string(de.name, de.namelen) +
                        "' points to unused inode " + std::to_string(de.ino));
            continue;
          }
          ++link_count[de.ino];
        }
      }
    }

    // Pass 3: nlink agreement (files: dirent count; dirs: 2 + child dirs,
    // approximated here as >= 2 since "."/".." are implicit).
    for (std::size_t idx = 0; idx < max_inodes_; ++idx) {
      if (!inodes_[idx].used) continue;
      InodeNum ino = idx + 1;
      if (file_type(inodes_[idx]) == FileType::kDirectory) {
        if (ino != root() && link_count[ino] == 0) {
          rep.problem("directory inode " + std::to_string(ino) +
                      " is orphaned (no dirent references it)");
        }
      } else {
        if (inodes_[idx].nlink != link_count[ino]) {
          rep.problem("inode " + std::to_string(ino) + " has nlink " +
                      std::to_string(inodes_[idx].nlink) + " but " +
                      std::to_string(link_count[ino]) + " references");
        }
        if (link_count[ino] == 0) {
          rep.problem("file inode " + std::to_string(ino) + " is orphaned");
        }
      }
    }

    // Pass 4: bitmap blocks nobody owns are leaked.
    for (std::size_t b = 1; b <= data_blocks_; ++b) {
      if (bitmap_[b - 1] != 0 && owner[b] == 0) {
        rep.problem("block " + std::to_string(b) +
                    " is marked used but unreferenced (leaked)");
      }
    }
    return rep;
  }

  // --- debugfs-style raw access (corruption injection, forensics) -----------
  [[nodiscard]] DiskInode debug_inode(InodeNum ino) { return inodes_[ino - 1]; }
  void debug_set_inode(InodeNum ino, const DiskInode& n) {
    inodes_[ino - 1] = n;
  }
  void debug_set_bitmap(std::uint32_t blk, bool used) {
    bitmap_[blk - 1] = used ? 1 : 0;
  }

 private:
  void charge(std::uint64_t units) {
    if (charge_) charge_(units);
  }

  // --- disk mapping ---------------------------------------------------------
  // LBA layout: [0, journal_slots_) journal strip, then data blocks.
  // In store mode the journal lives in the image, not the LBA space, so
  // data blocks map to their REAL home locations in the store's data
  // region (behind the inode table and bitmap).
  Result<void> io_touch_data(std::uint32_t blk, bool write) {
    if (io_ == nullptr || blk == 0) return {};
    blockdev::Lba lba = store_ != nullptr
                            ? static_cast<blockdev::Lba>(fsdata_base() +
                                                         (blk - 1))
                            : static_cast<blockdev::Lba>(journal_slots_ +
                                                         (blk - 1));
    if (write) return io_->write(lba % io_->disk().size());
    return io_->read(lba % io_->disk().size());
  }
  void io_touch_journal(std::size_t slot) {
    // Store mode: journal appends go through the store's group-commit
    // journal (real image writes); the LBA-strip pricing would double-
    // charge them.
    if (io_ == nullptr || store_ != nullptr) return;
    // Journal-strip write errors are absorbed: the in-memory journal only
    // prices the sequential append and is never replayed.
    (void)io_->write(static_cast<blockdev::Lba>(slot) % io_->disk().size());
  }

  // --- inode helpers ---------------------------------------------------------
  DiskInode* inode(InodeNum ino) {
    if (ino == 0 || ino > max_inodes_) return nullptr;
    DiskInode* n = &inodes_[ino - 1];
    return n->used ? n : nullptr;
  }
  DiskInode* dir_inode(InodeNum ino) {
    DiskInode* n = inode(ino);
    if (n == nullptr || file_type(*n) != FileType::kDirectory) return nullptr;
    return n;
  }
  static FileType file_type(const DiskInode& n) {
    return static_cast<FileType>(n.type);
  }
  FileType inode_type(std::uint32_t ino) {
    DiskInode* n = inode(ino);
    return n != nullptr ? file_type(*n) : FileType::kRegular;
  }

  // --- block allocation --------------------------------------------------------
  /// Data block numbers are 1-based; 0 means "no block".
  std::uint32_t alloc_block() {
    for (std::size_t i = 0; i < data_blocks_; ++i) {
      ++jstats_.bitmap_scan_steps;
      std::size_t probe = (bitmap_cursor_ + i) % data_blocks_;
      if (bitmap_[probe] == 0) {
        bitmap_[probe] = 1;
        bitmap_cursor_ = probe + 1;
        ++jstats_.blocks_allocated;
        journal_bitmap(static_cast<std::uint32_t>(probe + 1), 1);
        // Zero the block through the policy pointer.
        Ptr<std::uint8_t> p = data_ + probe * kBlockSize;
        for (std::size_t b = 0; b < kBlockSize; ++b) p[b] = 0;
        return static_cast<std::uint32_t>(probe + 1);
      }
    }
    return 0;
  }

  void free_block(std::uint32_t blk) {
    if (blk == 0) return;
    bitmap_[blk - 1] = 0;
    ++jstats_.blocks_freed;
    journal_bitmap(blk, 0);
  }

  /// Block number backing logical block index `li` of `n` (0 = hole).
  std::uint32_t block_of(DiskInode& n, std::size_t li, bool alloc) {
    if (li < kDirect) {
      if (n.direct[li] == 0 && alloc) n.direct[li] = alloc_block();
      return n.direct[li];
    }
    li -= kDirect;
    if (li >= kPtrsPerBlock) return 0;
    if (n.indirect == 0) {
      if (!alloc) return 0;
      n.indirect = alloc_block();
      if (n.indirect == 0) return 0;
    }
    Ptr<std::uint32_t> table = reinterpret_cast_policy(n.indirect);
    std::uint32_t blk = table[li];
    if (blk == 0 && alloc) {
      blk = alloc_block();
      // Re-derive: alloc_block may not invalidate, but be explicit.
      Ptr<std::uint32_t> t2 = reinterpret_cast_policy(n.indirect);
      t2[li] = blk;
      journal_block(n.indirect);
    }
    return blk;
  }

  /// View an allocated data block as an array of u32 block pointers. The
  /// raw policy reinterprets in place; this helper keeps the cast local.
  Ptr<std::uint32_t> reinterpret_cast_policy(std::uint32_t blk) {
    return Policy::template cast_bytes<std::uint32_t>(
        data_ + (blk - 1) * kBlockSize, kPtrsPerBlock);
  }

  void free_blocks_from(DiskInode& n, std::size_t keep) {
    for (std::size_t i = keep; i < kDirect; ++i) {
      free_block(n.direct[i]);
      n.direct[i] = 0;
    }
    if (n.indirect != 0) {
      Ptr<std::uint32_t> table = reinterpret_cast_policy(n.indirect);
      std::size_t start = keep > kDirect ? keep - kDirect : 0;
      bool any_left = false;
      for (std::size_t i = 0; i < kPtrsPerBlock; ++i) {
        if (i >= start) {
          free_block(table[i]);
          table[i] = 0;
        } else if (table[i] != 0) {
          any_left = true;
        }
      }
      if (!any_left) {
        free_block(n.indirect);
        n.indirect = 0;
      } else {
        // The surviving indirect block was modified in place; journal its
        // post-image or replay resurrects the freed pointers.
        journal_block(n.indirect);
      }
    }
  }

  // --- dirent helpers -------------------------------------------------------------
  Dirent load_dirent(std::uint32_t blk, std::size_t slot) {
    Dirent de{};
    Ptr<std::uint8_t> p = data_ + (blk - 1) * kBlockSize + slot * kDirentSize;
    auto* out = reinterpret_cast<std::uint8_t*>(&de);
    for (std::size_t i = 0; i < sizeof(Dirent); ++i) out[i] = p[i];
    return de;
  }

  void store_dirent(std::uint32_t blk, std::size_t slot, const Dirent& de) {
    Ptr<std::uint8_t> p = data_ + (blk - 1) * kBlockSize + slot * kDirentSize;
    const auto* in = reinterpret_cast<const std::uint8_t*>(&de);
    for (std::size_t i = 0; i < sizeof(Dirent); ++i) p[i] = in[i];
    journal_block(blk);
  }

  void erase_dirent_slot(std::uint32_t blk, std::size_t slot) {
    Dirent de = load_dirent(blk, slot);
    de.used = 0;
    store_dirent(blk, slot, de);
  }

  bool find_dirent(DiskInode& dir, std::string_view name, Dirent* out,
                   std::uint32_t* out_blk, std::size_t* out_slot) {
    std::size_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::uint32_t blk = block_of(dir, b, false);
      if (blk == 0) continue;
      for (std::size_t s = 0; s < kDirentsPerBlock; ++s) {
        Dirent de = load_dirent(blk, s);
        if (de.used && de.namelen == name.size() &&
            std::memcmp(de.name, name.data(), de.namelen) == 0) {
          if (out != nullptr) *out = de;
          if (out_blk != nullptr) *out_blk = blk;
          if (out_slot != nullptr) *out_slot = s;
          return true;
        }
      }
    }
    return false;
  }

  Errno add_dirent(DiskInode& dir, std::string_view name, std::uint32_t ino) {
    Dirent de{};
    de.ino = ino;
    de.used = 1;
    de.namelen = static_cast<std::uint8_t>(name.size());
    std::memcpy(de.name, name.data(), name.size());

    std::size_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::uint32_t blk = block_of(dir, b, false);
      if (blk == 0) continue;
      for (std::size_t s = 0; s < kDirentsPerBlock; ++s) {
        Dirent cur = load_dirent(blk, s);
        if (!cur.used) {
          store_dirent(blk, s, de);
          return Errno::kOk;
        }
      }
    }
    // Grow the directory by one block.
    std::uint32_t blk = block_of(dir, nblocks, true);
    if (blk == 0) return Errno::kENOSPC;
    dir.size = (nblocks + 1) * kBlockSize;
    store_dirent(blk, 0, de);
    return Errno::kOk;
  }

  Errno remove_entry(InodeNum dir, std::string_view name, bool want_dir) {
    DiskInode* d = dir_inode(dir);
    if (d == nullptr) return Errno::kENOTDIR;
    Dirent de;
    std::uint32_t blk = 0;
    std::size_t slot = 0;
    if (!find_dirent(*d, name, &de, &blk, &slot)) return Errno::kENOENT;
    DiskInode* victim = inode(de.ino);
    if (victim == nullptr) return Errno::kEIO;
    bool is_dir = file_type(*victim) == FileType::kDirectory;
    if (want_dir && !is_dir) return Errno::kENOTDIR;
    if (!want_dir && is_dir) return Errno::kEISDIR;
    if (is_dir) {
      // Must be empty.
      std::size_t nblocks = (victim->size + kBlockSize - 1) / kBlockSize;
      for (std::size_t b = 0; b < nblocks; ++b) {
        std::uint32_t vb = block_of(*victim, b, false);
        if (vb == 0) continue;
        for (std::size_t s = 0; s < kDirentsPerBlock; ++s) {
          if (load_dirent(vb, s).used) return Errno::kENOTEMPTY;
        }
      }
    }
    erase_dirent_slot(blk, slot);
    if (is_dir || --victim->nlink == 0) {
      free_blocks_from(*victim, 0);
      victim->used = 0;
      if (is_dir) --d->nlink;
    }
    d->mtime = ++clock_;
    journal_inode(dir);
    // The victim's new state (nlink drop or deallocation) must replay, or
    // recovery resurrects it half-dead.
    journal_inode(de.ino);
    return Errno::kOk;
  }

  // --- journaling ------------------------------------------------------------------
  /// One transaction per mutating public operation. Depth-counted so
  /// nested mutations (rename -> remove_entry) stay one transaction; the
  /// commit record is appended when the outermost scope exits.
  struct TxnScope {
    JournalFs& fs;
    explicit TxnScope(JournalFs& f) : fs(f) { ++fs.txn_depth_; }
    ~TxnScope() {
      if (--fs.txn_depth_ == 0) fs.end_txn();
    }
  };

  /// Keep this many free journal slots when deciding to checkpoint, so a
  /// transaction never wraps the circular log over its own records.
  static constexpr std::size_t kJournalMargin = 16;

  JournalRecord& next_record(JRecKind kind, std::uint32_t target,
                             std::uint32_t len) {
    JournalRecord& rec = journal_[journal_head_ % journal_slots_];
    ++journal_seq_;
    rec.kind = static_cast<std::uint8_t>(kind);
    rec.target = target;
    rec.len = len;
    return rec;
  }

  /// Finish an append: touch the journal strip on the io model and
  /// advance the head.
  void seal_record() {
    io_touch_journal(journal_head_ % journal_slots_);
    ++journal_head_;
  }

  /// Append a copy of data block `blk` to the journal (byte loop through
  /// policy pointers: this is the KGCC hot path).
  void journal_block(std::uint32_t blk) {
    JournalRecord& rec = next_record(JRecKind::kBlock, blk, kBlockSize);
    Ptr<std::uint8_t> src = data_ + (blk - 1) * kBlockSize;
    for (std::size_t i = 0; i < kBlockSize; ++i) rec.payload[i] = src[i];
    store_append(rec);
    seal_record();
    ++jstats_.journal_records;
    txn_dirty_ = true;
    charge(journal_cost_);
    // The checkpoint waits for the transaction boundary, so a commit
    // never carries half a transaction.
    if (journal_seq_ % commit_interval_ == 0) commit_pending_ = true;
  }

  /// Journal an inode update (the inode table region).
  void journal_inode(InodeNum ino) {
    JournalRecord& rec = next_record(JRecKind::kInode, static_cast<std::uint32_t>(ino),
                                     static_cast<std::uint32_t>(sizeof(DiskInode)));
    const DiskInode& n = inodes_[ino - 1];
    const auto* src = reinterpret_cast<const std::uint8_t*>(&n);
    for (std::size_t i = 0; i < sizeof(DiskInode); ++i) rec.payload[i] = src[i];
    store_append(rec);
    seal_record();
    ++jstats_.journal_records;
    txn_dirty_ = true;
  }

  /// Journal a bitmap delta: block allocation state must replay or
  /// recovered inodes would point into "free" blocks.
  void journal_bitmap(std::uint32_t blk, std::uint8_t used) {
    JournalRecord& rec = next_record(JRecKind::kBitmap, blk, 1);
    rec.payload[0] = used;
    store_append(rec);
    seal_record();
    txn_dirty_ = true;
  }

  /// Outermost mutation scope exit: append the commit record and run any
  /// deferred checkpoint.
  void end_txn() {
    if (!txn_dirty_) return;
    (void)next_record(JRecKind::kCommit, 0, 0);
    seal_record();
    txn_dirty_ = false;
    if (commit_pending_ || journal_head_ + kJournalMargin >= journal_slots_) {
      commit_pending_ = false;
      (void)commit_journal();
    }
  }

  Result<void> commit_journal() {
    // Checkpoint: flush dirty cached blocks to their home locations (the
    // scattered writes the journal deferred), then reset the head. A
    // writeback error leaves the cache dirty and is surfaced to sync();
    // the journal is reclaimed regardless (retry re-dirties nothing).
    Result<void> r{};
    if (store_ != nullptr) {
      // Store mode: commit the accumulated transaction batch to the
      // group-commit journal. The store checkpoints itself on region
      // pressure.
      r = store_commit();
    } else if (io_ != nullptr) {
      r = io_->flush();
    }
    ++jstats_.journal_commits;
    journal_head_ = 0;
    txn_dirty_ = false;
    return r;
  }

  // --- persistent store internals (PR-8) --------------------------------------
  // Home-location layout in the store's data region (see attach_store).
  [[nodiscard]] std::size_t inode_table_blocks() const {
    return (max_inodes_ * sizeof(DiskInode) + kBlockSize - 1) / kBlockSize;
  }
  [[nodiscard]] std::size_t bitmap_table_blocks() const {
    return (data_blocks_ + kBlockSize - 1) / kBlockSize;
  }
  [[nodiscard]] std::size_t fsdata_base() const {
    return inode_table_blocks() + bitmap_table_blocks();
  }
  [[nodiscard]] std::size_t total_home_blocks() const {
    return fsdata_base() + data_blocks_;
  }

  /// Feed a (clean) redo record into the running store transaction and
  /// note which home blocks its post-image dirties. The batch commits at
  /// sync()/fsync()/commit-interval boundaries, never per record.
  void store_append(const JournalRecord& rec) {
    if (store_ == nullptr) return;
    store_txn_.append(rec.kind, rec.target, rec.payload, rec.len);
    mark_home(static_cast<JRecKind>(rec.kind), rec.target);
  }

  void mark_home(JRecKind kind, std::uint32_t target) {
    switch (kind) {
      case JRecKind::kBlock:
        pending_home_.insert(fsdata_base() + (target - 1));
        break;
      case JRecKind::kInode: {
        // sizeof(DiskInode) does not divide the block size: an inode can
        // straddle a block boundary, dirtying two home blocks.
        const std::size_t first = (target - 1) * sizeof(DiskInode);
        pending_home_.insert(first / kBlockSize);
        pending_home_.insert((first + sizeof(DiskInode) - 1) / kBlockSize);
        break;
      }
      case JRecKind::kBitmap:
        pending_home_.insert(inode_table_blocks() + (target - 1) / kBlockSize);
        break;
      case JRecKind::kCommit:
        break;
    }
  }

  /// Commit the accumulated batch to the store's group-commit journal,
  /// then (inside the store's checkpoint exclusion) apply the home-
  /// location post-images to the page cache. Redo ordering: home blocks
  /// are dirtied only AFTER the commit unit is durable, so background
  /// writeback can never push uncommitted state into the image.
  Result<void> store_commit() {
    if (store_ == nullptr) return {};
    if (store_txn_.empty()) {
      // Nothing journaled since the last commit; retry any home writes a
      // previous commit failed to apply.
      return flush_home_writes();
    }
    Result<std::uint64_t> r = store_->commit_txn(
        std::move(store_txn_), [this] { return flush_home_writes(); });
    store_txn_ = store::JTxn{};
    if (!r.ok()) return r.error();
    ++jstats_.store_commits;
    return {};
  }

  /// Write every pending home block's CURRENT content (the live arrays
  /// equal the post-commit state: everything in the batch just committed
  /// together) into the page cache. A failed write keeps the remaining
  /// blocks pending for the next commit; the journal still holds their
  /// records until a later checkpoint succeeds.
  Result<void> flush_home_writes() {
    if (pending_home_.empty()) return {};
    std::vector<std::uint8_t> buf(kBlockSize);
    for (auto it = pending_home_.begin(); it != pending_home_.end();) {
      rebuild_home_block(*it, buf.data());
      if (Result<void> w =
              io_->write_data(static_cast<blockdev::Lba>(*it), buf.data());
          !w.ok()) {
        return w;
      }
      ++jstats_.store_home_writes;
      it = pending_home_.erase(it);
    }
    return {};
  }

  /// Reconstruct the authoritative content of home block `lba` from the
  /// live arrays (byte-wise through the policy pointers: inodes straddle
  /// block boundaries, so whole blocks are rebuilt, not records copied).
  void rebuild_home_block(std::size_t lba, std::uint8_t* out) {
    std::memset(out, 0, kBlockSize);
    if (lba < inode_table_blocks()) {
      const std::size_t lo = lba * kBlockSize;
      const std::size_t hi = lo + kBlockSize;
      const std::size_t table_bytes = max_inodes_ * sizeof(DiskInode);
      for (std::size_t k = lo / sizeof(DiskInode);
           k < max_inodes_ && k * sizeof(DiskInode) < hi; ++k) {
        const DiskInode tmp = inodes_[k];
        const auto* src = reinterpret_cast<const std::uint8_t*>(&tmp);
        const std::size_t base = k * sizeof(DiskInode);
        for (std::size_t i = 0; i < sizeof(DiskInode); ++i) {
          const std::size_t off = base + i;
          if (off >= lo && off < hi && off < table_bytes) {
            out[off - lo] = src[i];
          }
        }
      }
      return;
    }
    if (lba < fsdata_base()) {
      const std::size_t lo = (lba - inode_table_blocks()) * kBlockSize;
      if (lo >= data_blocks_) return;
      const std::size_t n = std::min(kBlockSize, data_blocks_ - lo);
      for (std::size_t i = 0; i < n; ++i) out[i] = bitmap_[lo + i];
      return;
    }
    const std::size_t blk = lba - fsdata_base();  // 0-based fs data block
    Ptr<std::uint8_t> src = data_ + blk * kBlockSize;
    for (std::size_t i = 0; i < kBlockSize; ++i) out[i] = src[i];
  }

  /// Replay one recovered journal record into the live arrays: the one
  /// replay routine (targets re-validated since the record comes off the
  /// medium).
  void apply_store_record(const store::JRecord& r) {
    switch (static_cast<JRecKind>(r.kind)) {
      case JRecKind::kBlock: {
        if (r.target == 0 || r.target > data_blocks_) return;
        Ptr<std::uint8_t> dst = data_ + (r.target - 1) * kBlockSize;
        const std::size_t n =
            std::min<std::size_t>(r.payload.size(), kBlockSize);
        for (std::size_t i = 0; i < n; ++i) dst[i] = r.payload[i];
        break;
      }
      case JRecKind::kInode: {
        if (r.target == 0 || r.target > max_inodes_) return;
        if (r.payload.size() < sizeof(DiskInode)) return;
        DiskInode n;
        std::memcpy(&n, r.payload.data(), sizeof(DiskInode));
        inodes_[r.target - 1] = n;
        break;
      }
      case JRecKind::kBitmap:
        if (r.target == 0 || r.target > data_blocks_) return;
        if (!r.payload.empty()) bitmap_[r.target - 1] = r.payload[0];
        break;
      default:
        break;
    }
  }

  /// Fresh image: persist the formatted state (only the root inode's home
  /// block is nonzero; the image file itself starts zeroed) and
  /// checkpoint it stable.
  Result<void> format_store() {
    pending_home_.insert(0);  // root inode lives at data-region byte 0
    USK_TRY(flush_home_writes());
    return store_->checkpoint();
  }

  /// Existing image: load the checkpointed state from the data region,
  /// replay the journal's committed prefix on top, write the replayed
  /// post-images home, and re-checkpoint -- the recovered state becomes
  /// the new stable image.
  Result<void> restore_from_store() {
    std::vector<std::uint8_t> blk(kBlockSize);
    const std::size_t it_blocks = inode_table_blocks();
    std::vector<std::uint8_t> table(it_blocks * kBlockSize);
    for (std::size_t b = 0; b < it_blocks; ++b) {
      USK_TRY(io_->read_data(static_cast<blockdev::Lba>(b), blk.data()));
      std::memcpy(table.data() + b * kBlockSize, blk.data(), kBlockSize);
    }
    for (std::size_t k = 0; k < max_inodes_; ++k) {
      DiskInode n;
      std::memcpy(&n, table.data() + k * sizeof(DiskInode), sizeof(DiskInode));
      inodes_[k] = n;
    }
    for (std::size_t b = 0; b < bitmap_table_blocks(); ++b) {
      USK_TRY(io_->read_data(static_cast<blockdev::Lba>(it_blocks + b),
                             blk.data()));
      const std::size_t lo = b * kBlockSize;
      const std::size_t n = std::min(kBlockSize, data_blocks_ - lo);
      for (std::size_t i = 0; i < n; ++i) bitmap_[lo + i] = blk[i];
    }
    for (std::size_t b = 0; b < data_blocks_; ++b) {
      USK_TRY(io_->read_data(static_cast<blockdev::Lba>(fsdata_base() + b),
                             blk.data()));
      Ptr<std::uint8_t> dst = data_ + b * kBlockSize;
      for (std::size_t i = 0; i < kBlockSize; ++i) dst[i] = blk[i];
    }
    last_recovery_ =
        store_->recover([this](const store::JRecord& r, std::uint64_t) {
          apply_store_record(r);
          mark_home(static_cast<JRecKind>(r.kind), r.target);
        });
    journal_head_ = 0;
    txn_dirty_ = false;
    commit_pending_ = false;
    USK_TRY(flush_home_writes());
    return store_->checkpoint();
  }

  std::size_t max_inodes_;
  std::size_t data_blocks_;
  std::size_t journal_slots_;
  std::size_t commit_interval_;
  Ptr<DiskInode> inodes_{};
  Ptr<std::uint8_t> bitmap_{};
  Ptr<std::uint8_t> data_{};
  Ptr<JournalRecord> journal_{};
  std::size_t bitmap_cursor_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t journal_seq_ = 0;
  std::size_t journal_head_ = 0;
  // --- transaction state ---
  bool txn_dirty_ = false;      ///< records appended since last commit record
  bool commit_pending_ = false; ///< checkpoint deferred to txn boundary
  int txn_depth_ = 0;
  JournalFsStats jstats_;
  FsCosts costs_;
  std::uint64_t journal_cost_ = 40;
  std::function<void(std::uint64_t)> charge_;
  blockdev::BufferCache* io_ = nullptr;
  // --- persistent store state (PR-8) ---
  store::Store* store_ = nullptr;
  store::JTxn store_txn_{};          ///< redo batch since the last commit
  std::set<std::size_t> pending_home_;  ///< home LBAs the batch dirties
  store::Store::RecoveryReport last_recovery_{};
};

}  // namespace usk::fs
