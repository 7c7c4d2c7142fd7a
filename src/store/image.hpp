// BackingImage: the persistent storage tier's on-disk image file.
//
// Everything below this line in the storage stack is REAL: a block written
// here lands in an actual file via pwrite, and flush() is a genuine
// fsync. This is what makes the torn-write/replay oracle honest --
// recovery reads back whatever the simulated power cut left in the file,
// not an in-memory stand-in.
//
// Crash capture (enable_crash_capture) is the kill-9 oracle's substrate:
// while enabled, every write is appended to a write log (the stable
// snapshot is the file contents at enable time) and each fsync records a
// flush mark. simulate_crash(prefix, tear) rewrites the image file to the
// stable snapshot plus a PREFIX of the logged writes -- optionally tearing
// the last one mid-block, the way a dying disk tears a sector -- so
// recovery then runs against the actual mutilated file. Cuts can land
// anywhere, including before a commit's own fsync; flush marks let the
// oracle assert that acked barriers stay durable for cuts past them.
// Capture is off by default and costs nothing when off.
//
// Fault sites (kfail):
//   store.short_write  -- a block write persists only its first half, then
//                         reports EIO (hard) or succeeds after a retry
//                         that is charged but clean (transient)
//   store.fsync_fail   -- flush() reports EIO; dirty data keeps pending
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/errno.hpp"

namespace usk::store {

inline constexpr std::size_t kBlockBytes = 4096;

struct ImageStats {
  std::uint64_t preads = 0;
  std::uint64_t pwrites = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t short_writes = 0;   ///< kfail store.short_write injections
  std::uint64_t fsync_failures = 0; ///< kfail store.fsync_fail injections
};

/// One logged post-flush write (crash-capture mode).
struct LoggedWrite {
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> data;
};

class BackingImage {
 public:
  BackingImage() = default;
  ~BackingImage();
  BackingImage(const BackingImage&) = delete;
  BackingImage& operator=(const BackingImage&) = delete;

  /// Create-or-open `path` sized to `blocks` 4 KiB blocks. An existing
  /// file is kept (its contents are the persistent state); a new or short
  /// file is extended with zeroes.
  [[nodiscard]] Result<void> open(const std::string& path,
                                  std::uint64_t blocks);
  void close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t blocks() const { return blocks_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Whole-block read/write. `buf` is kBlockBytes long.
  [[nodiscard]] Result<void> read_block(std::uint64_t lba, void* buf);
  [[nodiscard]] Result<void> write_block(std::uint64_t lba, const void* buf);
  /// Sub-block write at an absolute byte offset (commit headers).
  [[nodiscard]] Result<void> write_bytes(std::uint64_t offset, const void* buf,
                                         std::size_t len);
  [[nodiscard]] Result<void> read_bytes(std::uint64_t offset, void* buf,
                                        std::size_t len);

  /// Durability barrier: fsync.
  [[nodiscard]] Result<void> flush();

  [[nodiscard]] ImageStats stats() const;

  // --- crash-capture (the kill-9 oracle) ------------------------------------
  /// Start logging post-flush writes; the current (flushed) file contents
  /// become the stable snapshot.
  void enable_crash_capture();
  /// Number of writes logged since capture was enabled. The log is NOT
  /// folded at flush -- cut points must be able to land before a commit's
  /// own fsync (mid-journal-write, mid-commit-header).
  [[nodiscard]] std::size_t pending_writes() const;
  /// Log length at each successful flush since capture was enabled, in
  /// order. A cut at prefix >= flush_marks()[k] must preserve every write
  /// the k-th barrier covered -- the oracle's durability assertion.
  [[nodiscard]] std::vector<std::size_t> flush_marks() const;
  /// Region tag of logged write #i (for cut-point coverage accounting):
  /// derived purely from the write's offset by the caller-provided
  /// classifier at simulate time; here we just expose offset/len.
  [[nodiscard]] LoggedWrite pending_write(std::size_t i) const;

  /// Kill -9 at a cut point: rewrite the image file to the stable
  /// snapshot plus the first `prefix` logged writes; if `tear_bytes` is
  /// nonzero and prefix < log size, additionally apply only the first
  /// `tear_bytes` bytes of logged write #prefix (a torn final write).
  /// The file on disk ends up exactly in that state (fsynced); the log
  /// and snapshot reset so recovery can re-enable capture cleanly.
  [[nodiscard]] Result<void> simulate_crash(std::size_t prefix,
                                            std::size_t tear_bytes);

  // --- debugfs-style raw corruption (forensics/tests) -----------------------
  [[nodiscard]] Result<void> corrupt_bytes(std::uint64_t offset,
                                           std::size_t len);

 private:
  Result<void> pwrite_raw(std::uint64_t offset, const void* buf,
                          std::size_t len);
  Result<void> pread_raw(std::uint64_t offset, void* buf, std::size_t len);
  void log_write(std::uint64_t offset, const void* buf, std::size_t len);
  Result<void> capture_snapshot_locked();

  mutable std::mutex mu_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t blocks_ = 0;
  ImageStats stats_;

  bool capture_ = false;
  std::vector<std::uint8_t> stable_;      ///< file contents at capture enable
  std::vector<LoggedWrite> write_log_;    ///< post-enable writes, in order
  std::vector<std::size_t> flush_marks_;  ///< log length at each fsync
};

}  // namespace usk::store
