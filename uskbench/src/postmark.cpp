// postmark-memfs and postmark-store: PostMark (Katcher, NetApp TR3022) as
// a single-threaded closed loop, modelled on src/workload/postmark.cpp
// with the loop here so every call into a layer can be timed and every
// result checked against the benchmark's own model of the file pool.
//
// A pool of kPool files of kMinSize..kMaxSize bytes; each transaction
// reads or appends (512-B I/O) one live file, then creates or deletes
// one (50/50 each). Every created file is fsync'ed before close. The
// create/delete draw is clamped to keep the pool within
// [kPoolLow, kPoolHigh] so long runs fit the filesystem. Both variants
// use the zero CostModel and no filesystem cost hook, so every cost is
// the framework's real code.
//
// postmark-store runs the same syscall sequence on JournalFs with a
// store::Store attached through a BufferCache. Its image is an anonymous
// tmpfs file (memfd), so the store's own code is measured rather than a
// shared disk, and nothing is written to a fixed path.
#include <sys/mman.h>
#include <unistd.h>

#include <memory>

#include "base/rng.hpp"
#include "bench.hpp"
#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "fs/journalfs.hpp"
#include "fs/memfs.hpp"
#include "store/store.hpp"
#include "uk/userlib.hpp"

namespace uskbench {
namespace {

using namespace usk;
using JFs = fs::JournalFs<fs::RawPtrPolicy>;

constexpr std::size_t kPool = 500;
constexpr std::size_t kPoolLow = kPool / 2;
constexpr std::size_t kPoolHigh = kPool * 2;
constexpr std::size_t kMinSize = 500;
constexpr std::size_t kMaxSize = 9770;
constexpr std::size_t kIo = 512;
constexpr std::uint64_t kCountWindowTxns = 10000;
constexpr std::size_t kSampleOps = 1000;
constexpr const char* kDir = "/pm";

// JournalFs geometry: kPoolHigh files of a few blocks each, with room.
constexpr std::size_t kInodes = 2048;
constexpr std::size_t kFsBlocks = 8192;
constexpr std::size_t kJournalSlots = 1024;
constexpr std::size_t kCommitInterval = 256;
constexpr std::uint64_t kStoreDataBlocks = 8448;  // >= inodes+bitmap+blocks
constexpr std::uint64_t kStoreJournalBlocks = 2048;
constexpr std::size_t kCacheBlocks = 4096;

/// The store image: an anonymous tmpfs file (memfd) private to this run.
/// It has no name in any directory, so concurrent runs cannot collide and
/// nothing is left behind; the store opens it through /proc/self/fd.
class ImageFile {
 public:
  ImageFile() : memfd_(memfd_create("usk-bench-image", MFD_CLOEXEC)) {
    if (memfd_ >= 0) path_ = "/proc/self/fd/" + std::to_string(memfd_);
  }
  ~ImageFile() {
    if (memfd_ >= 0) ::close(memfd_);
  }
  ImageFile(const ImageFile&) = delete;
  ImageFile& operator=(const ImageFile&) = delete;

  /// Empty if the memfd could not be created.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int memfd_;
  std::string path_;
};

/// Members are destroyed bottom-up: the kernel before its root fs, the
/// filesystem before the store, the store before its cache and image.
struct PmStack {
  std::unique_ptr<blockdev::Disk> disk;
  std::unique_ptr<blockdev::BufferCache> cache;
  std::unique_ptr<ImageFile> image;
  std::unique_ptr<store::Store> st;
  std::unique_ptr<JFs> jfs;
  std::unique_ptr<fs::MemFs> memfs;
  std::unique_ptr<uk::Kernel> k;
  std::unique_ptr<uk::Proc> proc;
};

struct LiveFile {
  std::uint64_t idx;
  std::uint64_t size;  ///< the benchmark's model of the file's length
};

std::string file_path(std::uint64_t idx) {
  return std::string(kDir) + "/f" + std::to_string(idx);
}

/// The PostMark loop over one stack, with its model of the pool.
class PostMark {
 public:
  PostMark(uk::Proc& p, std::uint64_t seed, SegmentResult& res, Tracer& tr)
      : p_(p), rng_(seed * 0xA24BAED4963EE407ull + 1), res_(res), tr_(tr),
        block_(kIo) {
    for (std::byte& b : block_) b = static_cast<std::byte>(rng_.next() >> 56);
  }

  bool populate() {
    if (p_.mkdir(kDir) != 0) return false;
    dirfd_ = p_.open(kDir, fs::kORdOnly);
    if (dirfd_ < 0) return false;
    const std::uint64_t failed = res_.failed;
    for (std::size_t i = 0; i < kPool; ++i) create();
    return res_.failed == failed;
  }

  /// One transaction: read-or-append, then create-or-delete.
  void transaction() {
    std::string path;
    LiveFile* f;
    bool read;
    {
      Span sp(tr_, Sp::kBenchPrep);
      f = &live_[rng_.below(live_.size())];
      path = file_path(f->idx);
      read = rng_.chance(1, 2);
    }
    if (read) {
      read_file(path, *f);
    } else {
      append_file(path, *f);
    }
    bool create_one;
    {
      Span sp(tr_, Sp::kBenchPrep);
      const bool coin = rng_.chance(1, 2);
      create_one = live_.size() <= kPoolLow ||
                   (live_.size() < kPoolHigh && coin);
    }
    if (create_one) {
      create();
    } else {
      remove_random();
    }
  }

  /// Delete what is left and check the pool really is empty.
  void drain() {
    for (const LiveFile& f : live_) {
      if (p_.unlink(file_path(f.idx).c_str()) != 0) {
        res_.fail("unlink " + file_path(f.idx));
      }
    }
    live_.clear();
    if (p_.close(dirfd_) != 0) res_.fail("close /pm");
    const std::vector<uk::UserDirent> left = p_.list_dir(kDir);
    for (const uk::UserDirent& e : left) {
      if (e.name != "." && e.name != "..") {
        res_.fail("pool not empty: " + e.name);
        break;
      }
    }
    if (p_.rmdir(kDir) != 0) res_.fail("rmdir /pm");
  }

 private:
  void read_file(const std::string& path, const LiveFile& f) {
    int fd;
    {
      Span sp(tr_, Sp::kUkOpen);
      fd = p_.open(path.c_str(), fs::kORdOnly);
    }
    if (fd < 0) return res_.fail("open " + path);
    std::uint64_t total = 0;
    SysRet n;
    for (;;) {
      Span sp(tr_, Sp::kUkRead);
      n = p_.read(fd, buf_, kIo);
      if (n <= 0) break;
      total += static_cast<std::uint64_t>(n);
    }
    SysRet c;
    {
      Span sp(tr_, Sp::kUkClose);
      c = p_.close(fd);
    }
    if (n < 0 || c != 0 || total != f.size) {
      res_.fail("read " + path + ": " + std::to_string(total) + " B, want " +
                std::to_string(f.size));
    }
  }

  void append_file(const std::string& path, LiveFile& f) {
    int fd;
    {
      Span sp(tr_, Sp::kUkOpen);
      fd = p_.open(path.c_str(), fs::kOWrOnly | fs::kOAppend);
    }
    if (fd < 0) return res_.fail("open " + path);
    SysRet n;
    {
      Span sp(tr_, Sp::kUkWrite);
      n = p_.write(fd, block_.data(), kIo);
    }
    SysRet c;
    {
      Span sp(tr_, Sp::kUkClose);
      c = p_.close(fd);
    }
    if (n > 0) f.size += static_cast<std::uint64_t>(n);
    if (n != static_cast<SysRet>(kIo) || c != 0) res_.fail("append " + path);
  }

  void create() {
    std::string path;
    LiveFile f;
    {
      Span sp(tr_, Sp::kBenchPrep);
      f = LiveFile{next_idx_++, rng_.range(kMinSize, kMaxSize)};
      path = file_path(f.idx);
    }
    int fd;
    {
      Span sp(tr_, Sp::kUkOpen);
      fd = p_.open(path.c_str(), fs::kOWrOnly | fs::kOCreat | fs::kOTrunc);
    }
    if (fd < 0) return res_.fail("create " + path);
    bool ok = true;
    for (std::uint64_t done = 0; done < f.size && ok;) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(kIo, f.size - done));
      Span sp(tr_, Sp::kUkWrite);
      ok = p_.write(fd, block_.data(), chunk) == static_cast<SysRet>(chunk);
      done += chunk;
    }
    SysRet s, c;
    {
      Span sp(tr_, Sp::kUkFsync);
      s = p_.fsync(fd);
    }
    {
      Span sp(tr_, Sp::kUkClose);
      c = p_.close(fd);
    }
    if (!ok || s != 0 || c != 0) return res_.fail("create " + path);
    live_.push_back(f);
  }

  void remove_random() {
    std::size_t vi;
    std::string path;
    {
      Span sp(tr_, Sp::kBenchPrep);
      vi = rng_.below(live_.size());
      path = file_path(live_[vi].idx);
    }
    SysRet r, s;
    {
      Span sp(tr_, Sp::kUkUnlink);
      r = p_.unlink(path.c_str());
    }
    {
      Span sp(tr_, Sp::kUkFsync);
      s = p_.fsync(dirfd_);
    }
    if (r != 0 || s != 0) return res_.fail("unlink " + path);
    live_[vi] = live_.back();
    live_.pop_back();
  }

  uk::Proc& p_;
  base::Rng rng_;
  SegmentResult& res_;
  Tracer& tr_;
  std::vector<std::byte> block_;
  std::byte buf_[kIo];
  std::vector<LiveFile> live_;
  std::uint64_t next_idx_ = 0;
  int dirfd_ = -1;  ///< /pm, held open to fsync after each unlink
};

std::unique_ptr<PmStack> make_stack(bool store, SetupTimes& st,
                                    std::string* err) {
  auto s = std::make_unique<PmStack>();
  uk::KernelConfig cfg;
  cfg.boundary = uk::CostModel{0, 0, 0, 0};
  fs::FileSystem* root;
  if (store) {
    s->disk = std::make_unique<blockdev::Disk>(kStoreDataBlocks);
    s->cache = std::make_unique<blockdev::BufferCache>(*s->disk, kCacheBlocks);
    s->image = std::make_unique<ImageFile>();
    s->st = std::make_unique<store::Store>();
    store::StoreConfig scfg;
    scfg.data_blocks = kStoreDataBlocks;
    scfg.journal_blocks = kStoreJournalBlocks;
    s->jfs = std::make_unique<JFs>(kInodes, kFsBlocks, kJournalSlots,
                                   kCommitInterval);
    if (s->image->path().empty() || !s->st->open(s->image->path(), scfg).ok() ||
        !s->jfs->attach_store(s->st.get(), s->cache.get()).ok()) {
      *err = "store image setup failed";
      return nullptr;
    }
    root = s->jfs.get();
  } else {
    s->memfs = std::make_unique<fs::MemFs>();
    root = s->memfs.get();
  }
  const std::uint64_t c0 = now_ns();
  s->k = std::make_unique<uk::Kernel>(*root, cfg);
  st.ctor_s.push_back(static_cast<double>(now_ns() - c0) * 1e-9);
  s->proc = std::make_unique<uk::Proc>(*s->k, "postmark");
  return s;
}

struct StoreCounts {
  std::uint64_t commit_units = 0, image_bytes = 0, checkpoints = 0,
                lookups = 0, hits = 0, writebacks = 0;
  static StoreCounts of(PmStack& s) {
    if (!s.st) return {};
    const blockdev::CacheStats cs = s.cache->stats();
    return {s.st->journal()->stats().commit_units,
            s.st->image().stats().bytes_written, s.st->stats().checkpoints,
            cs.lookups, cs.hits, cs.writebacks};
  }
};

}  // namespace

SegmentResult run_postmark(const SegmentSpec& spec, bool store, SetupTimes& st) {
  SegmentResult res;
  Tracer tr(spec.traced, kSampleOps);
  const std::uint64_t setup0 = now_ns();
  std::string err;
  std::unique_ptr<PmStack> s = make_stack(store, st, &err);
  std::unique_ptr<PostMark> pm;
  if (s != nullptr) {
    pm = std::make_unique<PostMark>(*s->proc, spec.opt->seed, res, tr);
    if (!pm->populate()) err = "populating the pool failed";
  }
  if (!err.empty()) {
    res.attempted = 1;
    res.fail("setup: " + err);
    return res;
  }
  st.setup_s.push_back(static_cast<double>(now_ns() - setup0) * 1e-9);

  uk::Kernel& k = *s->k;
  const sched::Task& task = s->proc->task();
  TaskCounts tc0 = TaskCounts::of(task);
  KernelCounts kc0 = KernelCounts::of(k);
  StoreCounts sc0 = StoreCounts::of(*s);

  // Run until the deadline, and at least through the count window.
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t e0 = ticks();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(spec.seconds * 1e9);
  std::uint64_t next_mark = t0;
  std::uint64_t txn = 0;
  for (std::uint64_t now = t0; now < deadline || txn < kCountWindowTxns;) {
    for (; now >= next_mark; next_mark += kSliceNs) res.cpu_marks.push_back(cpu_seconds());
    tr.op_begin(txn);
    pm->transaction();
    tr.op_end();
    const std::uint64_t end = now_ns();
    res.lat.record(end - t0, end - now);
    now = end;
    if (++txn == kCountWindowTxns) {
      const TaskCounts tc1 = TaskCounts::of(task);
      const KernelCounts kc1 = KernelCounts::of(k);
      const StoreCounts sc1 = StoreCounts::of(*s);
      res.counts.ops = txn;
      (tc1 - tc0).add_to(res.counts);
      kc1.add_delta_to(kc0, res.counts);
      res.counts.commit_units = sc1.commit_units - sc0.commit_units;
      res.counts.image_bytes_written = sc1.image_bytes - sc0.image_bytes;
      res.counts.checkpoints = sc1.checkpoints - sc0.checkpoints;
      res.counts.cache_lookups = sc1.lookups - sc0.lookups;
      res.counts.cache_hits = sc1.hits - sc0.hits;
      res.counts.writebacks = sc1.writebacks - sc0.writebacks;
    }
  }
  res.elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  res.cpu_s = cpu_seconds() - cpu0;
  res.attempted = txn;
  res.trace = res.serve_trace = tr.totals();
  if (spec.traced) dump_spans(spec, {&tr}, e0);

  res.null_syscall_ns = null_syscall_ns(k);
  pm->drain();
  if (store) {
    if (s->proc->sync() != 0) res.fail("sync");
    const JFs::FsckReport fr = s->jfs->fsck();
    if (!fr.clean) {
      res.fail("fsck: " + (fr.problems.empty() ? std::string("unclean")
                                               : fr.problems.front()));
    }
  }
  return res;
}

}  // namespace uskbench
