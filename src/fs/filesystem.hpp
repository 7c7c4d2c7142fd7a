// Abstract filesystem interface (the superblock + inode operations table).
//
// Concrete filesystems: MemFs (ext2-like base), WrapFs (stackable wrapper,
// paper §3.2), JournalFs (journaling reiserfs stand-in, §3.4). The VFS
// layer (vfs.hpp) performs path walking, caching, and file descriptors on
// top of this interface; all buffers here are kernel buffers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "base/errno.hpp"
#include "fs/types.hpp"

namespace usk::fs {

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  [[nodiscard]] virtual InodeNum root() const = 0;
  [[nodiscard]] virtual const char* fstype() const = 0;

  /// Find `name` in directory `dir`.
  virtual Result<InodeNum> lookup(InodeNum dir, std::string_view name) = 0;

  /// Create a regular file or directory entry `name` in `dir`.
  virtual Result<InodeNum> create(InodeNum dir, std::string_view name,
                                  FileType type, std::uint32_t mode) = 0;

  virtual Result<void> unlink(InodeNum dir, std::string_view name) = 0;

  /// Hard link: add `name` in `dir` referring to existing inode `target`.
  /// Optional (ENOSYS by default); links to directories are rejected.
  virtual Result<void> link(InodeNum dir, std::string_view name, InodeNum target) {
    (void)dir;
    (void)name;
    (void)target;
    return Errno::kENOSYS;
  }

  /// Change permission bits. Optional (ENOSYS by default).
  virtual Result<void> chmod(InodeNum ino, std::uint32_t mode) {
    (void)ino;
    (void)mode;
    return Errno::kENOSYS;
  }

  virtual Result<void> rmdir(InodeNum dir, std::string_view name) = 0;
  virtual Result<void> rename(InodeNum src_dir, std::string_view src_name,
                       InodeNum dst_dir, std::string_view dst_name) = 0;

  virtual Result<std::size_t> read(InodeNum ino, std::uint64_t offset,
                                   std::span<std::byte> out) = 0;
  virtual Result<std::size_t> write(InodeNum ino, std::uint64_t offset,
                                    std::span<const std::byte> in) = 0;
  virtual Result<void> truncate(InodeNum ino, std::uint64_t size) = 0;

  virtual Result<void> getattr(InodeNum ino, StatBuf* st) = 0;
  virtual Result<std::vector<DirEntry>> readdir(InodeNum dir) = 0;

  /// Windowed directory read for getdents-style resumable listing: up to
  /// `max_entries` entries starting at index `start`. The default re-lists
  /// the whole directory and slices; filesystems with cheap cursors
  /// (MemFs) override it to charge only for the window.
  virtual Result<std::vector<DirEntry>> readdir_window(InodeNum dir,
                                                       std::size_t start,
                                                       std::size_t max_entries) {
    Result<std::vector<DirEntry>> all = readdir(dir);
    if (!all) return all;
    std::vector<DirEntry>& v = all.value();
    if (start >= v.size()) return std::vector<DirEntry>{};
    std::size_t end = std::min(v.size(), start + max_entries);
    return std::vector<DirEntry>(v.begin() + static_cast<std::ptrdiff_t>(start),
                                 v.begin() + static_cast<std::ptrdiff_t>(end));
  }

  /// Hook invoked by the VFS when a file descriptor referencing `ino` is
  /// released (close) or duplicated (dup). Filesystems whose objects have
  /// fd-bound lifetimes (fs::AnonFs counts each object's fds) override
  /// these; stored filesystems have nothing to do.
  virtual void release_file(InodeNum ino) { (void)ino; }
  virtual void dup_file(InodeNum ino) { (void)ino; }

  /// Flush pending state (journals). Default: nothing to do.
  virtual Result<void> sync() { return Errno::kOk; }

  /// fsync(2)/fdatasync(2): make `ino`'s pending state durable. Journaled
  /// filesystems flush their running transaction (ext3-style: the journal
  /// is shared, so one file's fsync commits everything pending); the
  /// default falls back to a whole-filesystem sync. `datasync` permits
  /// skipping pure-timestamp metadata, which the stored filesystems here
  /// journal anyway -- both flavours reach the same commit path.
  virtual Result<void> fsync(InodeNum ino, bool datasync) {
    (void)ino;
    (void)datasync;
    return sync();
  }
};

}  // namespace usk::fs
