// Common VFS types: stat buffers, directory entries, open flags.
#pragma once

#include <cstdint>
#include <string>

namespace usk::fs {

using InodeNum = std::uint64_t;
inline constexpr InodeNum kInvalidInode = 0;

enum class FileType : std::uint8_t {
  kRegular,
  kDirectory,
  kSymlink,
  kSocket,  ///< net::Socket exposed through the fd table (src/net)
};

/// What stat()/fstat() fill in. This is the structure copied across the
/// user/kernel boundary, so its size matters to the readdirplus analysis.
struct StatBuf {
  InodeNum ino = 0;
  FileType type = FileType::kRegular;
  // Explicit, zeroed padding: a StatBuf is copied out whole, so implicit
  // padding would carry stale kernel stack bytes into user memory.
  std::uint8_t pad0[3] = {};
  std::uint32_t mode = 0644;
  std::uint32_t nlink = 1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t pad1 = 0;
  std::uint64_t size = 0;
  std::uint64_t blocks = 0;
  std::uint64_t atime = 0;
  std::uint64_t mtime = 0;
  std::uint64_t ctime = 0;
};

struct DirEntry {
  std::string name;
  InodeNum ino = 0;
  FileType type = FileType::kRegular;
};

/// Combined entry returned by readdirplus (paper §2.2: "returns the names
/// and status information for all of the files in a directory").
struct DirEntryPlus {
  DirEntry entry;
  StatBuf stat;
};

// open(2) flags (subset).
inline constexpr int kORdOnly = 0x0;
inline constexpr int kOWrOnly = 0x1;
inline constexpr int kORdWr = 0x2;
inline constexpr int kOCreat = 0x40;
inline constexpr int kOTrunc = 0x200;
inline constexpr int kOAppend = 0x400;

inline constexpr int kAccessMode = 0x3;

// lseek whence.
inline constexpr int kSeekSet = 0;
inline constexpr int kSeekCur = 1;
inline constexpr int kSeekEnd = 2;

}  // namespace usk::fs
