// The kill-9 oracle for the persistent storage tier.
//
// Each seed runs the same filesystem workload against a fresh backing
// image with crash capture on, picks a seed-derived CUT POINT into the
// image's logged write stream (optionally tearing the first lost write
// mid-way, like a dying disk tears a sector), rewrites the image file to
// exactly that prefix (simulate_crash), and then mounts a completely
// fresh stack -- new cache, new Store, new JournalFs -- over the
// mutilated file. The oracle then asserts, against the REAL recovered
// bytes:
//
//   consistency  fsck is clean, and the recovered file set is exactly
//                {f1..fN} for some N <= K -- a committed PREFIX of the
//                workload, never a gap, never a torn file;
//   durability   every file whose fsync completed before the cut point
//                (image flush marks) is present with intact contents;
//   coverage     across the sweep, cut points land in all three image
//                regions (superblock / journal / data) and on all the
//                interesting write kinds: mid-journal-payload,
//                mid-commit-header, and mid-checkpoint (superblock and
//                home-location writeback).
//
// The workload fsyncs each file into its own commit unit and checkpoints
// every few files, so cuts exercise group-commit units, the dual-slot
// superblock, and the writeback path in one sweep.
//
// The image is an anonymous tmpfs file (memfd) that the store opens by
// path through /proc/self/fd, as uskbench postmark-store does: every seed
// rewrites and fsyncs it, and on tmpfs that fsync waits on no disk. The
// store tests in test_store.cpp keep their images on real files.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "fs/journalfs.hpp"
#include "store/image.hpp"
#include "store/store.hpp"
#include "numbered.hpp"

namespace usk {
namespace {

using store::Store;
using store::StoreConfig;

constexpr int kFiles = 8;
using JFs = fs::JournalFs<fs::RawPtrPolicy>;

StoreConfig oracle_config() {
  StoreConfig cfg;
  cfg.data_blocks = 192;  // inode table (2) + bitmap (1) + 128 fs blocks
  cfg.journal_blocks = 64;
  return cfg;
}

/// Deterministic per-file contents: size and bytes derived from k alone,
/// so the recovery side can re-derive the expectation.
std::vector<std::byte> file_body(int k) {
  std::vector<std::byte> b(64 + std::size_t(k * 53) % 3000);
  for (std::size_t j = 0; j < b.size(); ++j) {
    b[j] = static_cast<std::byte>((k * 31 + j * 7) & 0xff);
  }
  return b;
}

std::string file_name(int k) { return testutil::numbered("f", k); }

/// What kind of write would the cut destroy first?
enum class CutKind {
  kCleanEnd,       ///< cut == log size: nothing lost
  kJournalPayload, ///< mid-journal-write (a unit's record payload)
  kCommitHeader,   ///< mid-commit-header (the unit's validity bit)
  kSuperblock,     ///< mid-checkpoint superblock slot write
  kDataWriteback,  ///< mid-checkpoint home-location writeback
};

struct CrashOutcome {
  CutKind kind = CutKind::kCleanEnd;
  bool torn = false;
  std::size_t cut = 0;
  std::size_t log_total = 0;
  int recovered_files = 0;
};

/// The oracle's backing image, private to one test: a memfd reached by
/// its /proc/self/fd path.
class MemImage {
 public:
  MemImage() : fd_(memfd_create("usk-crash-oracle", MFD_CLOEXEC)) {
    if (fd_ >= 0) path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~MemImage() {
    if (fd_ >= 0) ::close(fd_);
  }
  MemImage(const MemImage&) = delete;
  MemImage& operator=(const MemImage&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Back to an empty file, like a newly created one. Fails if the memfd
  /// could not be created.
  [[nodiscard]] bool reset() { return ::ftruncate(fd_, 0) == 0; }

 private:
  int fd_;
  std::string path_;
};

/// One seeded crash/recover cycle. Fatal gtest assertions fire inside.
void run_one_crash(MemImage& image, std::uint64_t seed, CrashOutcome* out) {
  ASSERT_TRUE(image.reset());
  const std::string& path = image.path();
  const StoreConfig cfg = oracle_config();

  // marks[k] = log length right after file k's fsync returned: a cut at
  // or past it must recover file k (durability floor).
  std::vector<std::size_t> marks(kFiles + 1, 0);
  {
    blockdev::Disk disk(4096);
    blockdev::BufferCache cache(disk, 256);
    Store st;
    ASSERT_TRUE(st.open(path, cfg).ok());
    JFs jfs(64, 128, 512, 8);
    ASSERT_TRUE(jfs.attach_store(&st, &cache).ok());
    st.image().enable_crash_capture();

    for (int k = 1; k <= kFiles; ++k) {
      auto ino =
          jfs.create(jfs.root(), file_name(k), fs::FileType::kRegular, 0644);
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(jfs.write(ino.value(), 0, file_body(k)).ok());
      ASSERT_TRUE(jfs.fsync(ino.value(), false).ok());
      marks[k] = st.image().pending_writes();
      // Periodic checkpoints put superblock + home-writeback writes into
      // the log so cuts can tear a checkpoint mid-flight.
      if (k % 4 == 0) {
        ASSERT_TRUE(st.checkpoint().ok());
      }
    }

    const std::size_t total = st.image().pending_writes();
    ASSERT_GT(total, 0u);
    const std::size_t cut = seed % (total + 1);
    std::size_t tear = 0;
    out->cut = cut;
    out->log_total = total;
    if (cut < total) {
      store::LoggedWrite first_lost = st.image().pending_write(cut);
      if (seed % 2 == 1 && !first_lost.data.empty()) {
        tear = 1 + std::size_t(seed * 2654435761ull) % first_lost.data.size();
        out->torn = true;
      }
      switch (st.classify_offset(first_lost.offset)) {
        case Store::Region::kSuperblock:
          out->kind = CutKind::kSuperblock;
          break;
        case Store::Region::kJournal:
          // Within the journal region, the unit's header is the one small
          // sub-block write; record payloads are the big ones.
          out->kind = first_lost.data.size() <= 128 ? CutKind::kCommitHeader
                                                    : CutKind::kJournalPayload;
          break;
        case Store::Region::kData:
          out->kind = CutKind::kDataWriteback;
          break;
      }
    }
    ASSERT_TRUE(st.image().simulate_crash(cut, tear).ok());
    st.close();
  }

  // Mount a fresh stack over the mutilated file and interrogate it.
  blockdev::Disk disk(4096);
  blockdev::BufferCache cache(disk, 256);
  Store st;
  ASSERT_TRUE(st.open(path, cfg).ok());
  JFs jfs(64, 128, 512, 8);
  ASSERT_TRUE(jfs.attach_store(&st, &cache).ok())
      << "seed " << seed << " cut " << out->cut << "/" << out->log_total;

  auto fsck = jfs.fsck();
  ASSERT_TRUE(fsck.clean) << "seed " << seed << " cut " << out->cut << ": "
                          << (fsck.problems.empty() ? "?"
                                                    : fsck.problems[0]);

  // The recovered directory must hold exactly {f1..fN}: a prefix.
  auto entries = jfs.readdir(jfs.root());
  ASSERT_TRUE(entries.ok());
  std::map<std::string, fs::InodeNum> present;
  for (const fs::DirEntry& e : entries.value()) present[e.name] = e.ino;
  int n = 0;
  while (n < kFiles && present.count(file_name(n + 1)) != 0) ++n;
  ASSERT_EQ(present.size(), std::size_t(n))
      << "seed " << seed << " cut " << out->cut
      << ": recovered set is not a prefix (gap after f" << n << ")";
  out->recovered_files = n;

  // Durability: every fsync acked before the cut point must have stuck.
  for (int k = 1; k <= kFiles; ++k) {
    if (marks[k] != 0 && out->cut >= marks[k]) {
      ASSERT_GE(n, k) << "seed " << seed << " cut " << out->cut
                      << ": fsynced file f" << k << " lost";
    }
  }

  // Contents of everything that survived must be byte-exact.
  for (int k = 1; k <= n; ++k) {
    const std::vector<std::byte> want = file_body(k);
    std::vector<std::byte> got(want.size());
    auto r = jfs.read(present[file_name(k)], 0, got);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), want.size());
    ASSERT_EQ(got, want) << "seed " << seed << ": f" << k << " corrupted";
  }
  st.close();
}

class StoreCrashTest : public ::testing::Test {
 protected:
  MemImage image_;
};

// A quick pass over the early cut positions -- kept cheap so tier-1 always
// exercises the oracle machinery end to end.
TEST_F(StoreCrashTest, CrashOracleSmoke) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    CrashOutcome out;
    run_one_crash(image_, seed, &out);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The acceptance sweep: >= 200 seeded kill-9 cut points. Seeds walk every
// cut position of the write log several times over (the log is a few
// dozen writes long), half of them with a torn final write, so every
// region and write kind is hit.
TEST_F(StoreCrashTest, CrashOracleSweepTwoHundredCuts) {
  std::map<CutKind, int> kinds;
  int torn = 0;
  constexpr std::uint64_t kSeeds = 224;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    CrashOutcome out;
    run_one_crash(image_, seed, &out);
    if (::testing::Test::HasFatalFailure()) return;
    ++kinds[out.kind];
    torn += out.torn ? 1 : 0;
  }
  // Coverage: all three regions, all interesting write kinds, plenty of
  // torn finals. These are deterministic given the workload shape; if a
  // layout change starves a category, the oracle must be re-aimed, not
  // weakened.
  EXPECT_GT(kinds[CutKind::kJournalPayload], 0) << "no mid-journal cuts";
  EXPECT_GT(kinds[CutKind::kCommitHeader], 0) << "no mid-header cuts";
  EXPECT_GT(kinds[CutKind::kSuperblock], 0) << "no superblock cuts";
  EXPECT_GT(kinds[CutKind::kDataWriteback], 0) << "no writeback cuts";
  EXPECT_GT(torn, int(kSeeds / 4));
}

}  // namespace
}  // namespace usk
