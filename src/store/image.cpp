#include "store/image.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fault/kfail.hpp"
#include "trace/tracepoint.hpp"

namespace usk::store {

namespace {
/// Map a host errno from the real I/O syscalls onto the simulated one.
Errno host_errno() {
  switch (errno) {
    case ENOENT: return Errno::kENOENT;
    case EACCES: return Errno::kEACCES;
    case ENOSPC: return Errno::kENOSPC;
    case EBADF: return Errno::kEBADF;
    default: return Errno::kEIO;
  }
}
}  // namespace

BackingImage::~BackingImage() { close(); }

Result<void> BackingImage::open(const std::string& path,
                                std::uint64_t blocks) {
  std::lock_guard lk(mu_);
  if (fd_ >= 0) return Errno::kEBUSY;
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return host_errno();
  const std::uint64_t want = blocks * kBlockBytes;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return host_errno();
  }
  if (static_cast<std::uint64_t>(st.st_size) < want &&
      ::ftruncate(fd, static_cast<off_t>(want)) != 0) {
    ::close(fd);
    return host_errno();
  }
  fd_ = fd;
  path_ = path;
  blocks_ = blocks;
  return {};
}

void BackingImage::close() {
  std::lock_guard lk(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  capture_ = false;
  stable_.clear();
  write_log_.clear();
}

Result<void> BackingImage::pread_raw(std::uint64_t offset, void* buf,
                                     std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd_, static_cast<std::uint8_t*>(buf) + done,
                        len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return host_errno();
    }
    if (n == 0) {  // past EOF (shouldn't happen: file pre-sized)
      std::memset(static_cast<std::uint8_t*>(buf) + done, 0, len - done);
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  ++stats_.preads;
  stats_.bytes_read += len;
  return {};
}

Result<void> BackingImage::pwrite_raw(std::uint64_t offset, const void* buf,
                                      std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::pwrite(fd_, static_cast<const std::uint8_t*>(buf) + done,
                         len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return host_errno();
    }
    done += static_cast<std::size_t>(n);
  }
  ++stats_.pwrites;
  stats_.bytes_written += len;
  return {};
}

void BackingImage::log_write(std::uint64_t offset, const void* buf,
                             std::size_t len) {
  if (!capture_) return;
  LoggedWrite w;
  w.offset = offset;
  w.data.assign(static_cast<const std::uint8_t*>(buf),
                static_cast<const std::uint8_t*>(buf) + len);
  write_log_.push_back(std::move(w));
}

Result<void> BackingImage::read_block(std::uint64_t lba, void* buf) {
  std::lock_guard lk(mu_);
  if (fd_ < 0) return Errno::kEBADF;
  if (lba >= blocks_) return Errno::kEINVAL;
  return pread_raw(lba * kBlockBytes, buf, kBlockBytes);
}

Result<void> BackingImage::write_block(std::uint64_t lba, const void* buf) {
  std::lock_guard lk(mu_);
  if (fd_ < 0) return Errno::kEBADF;
  if (lba >= blocks_) return Errno::kEINVAL;
  const std::uint64_t off = lba * kBlockBytes;
  if (auto f = USK_FAIL_POINT(fault::Site::kStoreShortWrite);
      f.fail || f.transient) {
    if (f.fail) {
      // Short write: the first half of the block hits the medium, the
      // rest never does, and the drive reports the error. The torn block
      // is REAL -- it is what a later read (or recovery) will see.
      ++stats_.short_writes;
      USK_TRY(pwrite_raw(off, buf, kBlockBytes / 2));
      log_write(off, buf, kBlockBytes / 2);
      return f.err;
    }
    // Transient: the first attempt was short, the retry completes. One
    // extra half-block write is charged to the stats.
    ++stats_.short_writes;
    USK_TRY(pwrite_raw(off, buf, kBlockBytes / 2));
  }
  USK_TRY(pwrite_raw(off, buf, kBlockBytes));
  log_write(off, buf, kBlockBytes);
  return {};
}

Result<void> BackingImage::write_bytes(std::uint64_t offset, const void* buf,
                                       std::size_t len) {
  std::lock_guard lk(mu_);
  if (fd_ < 0) return Errno::kEBADF;
  if (offset + len > blocks_ * kBlockBytes) return Errno::kEINVAL;
  USK_TRY(pwrite_raw(offset, buf, len));
  log_write(offset, buf, len);
  return {};
}

Result<void> BackingImage::read_bytes(std::uint64_t offset, void* buf,
                                      std::size_t len) {
  std::lock_guard lk(mu_);
  if (fd_ < 0) return Errno::kEBADF;
  if (offset + len > blocks_ * kBlockBytes) return Errno::kEINVAL;
  return pread_raw(offset, buf, len);
}

Result<void> BackingImage::flush() {
  std::lock_guard lk(mu_);
  if (fd_ < 0) return Errno::kEBADF;
  if (auto f = USK_FAIL_POINT(fault::Site::kStoreFsyncFail);
      f.fail || f.transient) {
    if (f.fail) {
      ++stats_.fsync_failures;
      return f.err;
    }
    // Transient: first fsync attempt failed, retry succeeds below.
    ++stats_.fsync_failures;
  }
  if (::fsync(fd_) != 0) return host_errno();
  ++stats_.fsyncs;
  USK_TRACEPOINT("store", "fsync", stats_.fsyncs, 0);
  if (capture_) {
    // Keep the log growing across flushes -- a crash cut must be able to
    // land BEFORE a commit's own fsync (mid-journal-write, mid-header).
    // Record where the barrier fell so the oracle can assert durability:
    // any cut at or past this mark must preserve everything before it.
    flush_marks_.push_back(write_log_.size());
  }
  return {};
}

ImageStats BackingImage::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

// --- crash capture -----------------------------------------------------------

Result<void> BackingImage::capture_snapshot_locked() {
  stable_.resize(blocks_ * kBlockBytes);
  USK_TRY(pread_raw(0, stable_.data(), stable_.size()));
  write_log_.clear();
  flush_marks_.clear();
  return {};
}

void BackingImage::enable_crash_capture() {
  std::lock_guard lk(mu_);
  capture_ = true;
  (void)capture_snapshot_locked();
}

std::vector<std::size_t> BackingImage::flush_marks() const {
  std::lock_guard lk(mu_);
  return flush_marks_;
}

std::size_t BackingImage::pending_writes() const {
  std::lock_guard lk(mu_);
  return write_log_.size();
}

LoggedWrite BackingImage::pending_write(std::size_t i) const {
  std::lock_guard lk(mu_);
  return i < write_log_.size() ? write_log_[i] : LoggedWrite{};
}

Result<void> BackingImage::simulate_crash(std::size_t prefix,
                                          std::size_t tear_bytes) {
  std::lock_guard lk(mu_);
  if (!capture_ || fd_ < 0) return Errno::kEINVAL;
  // Reconstruct the post-crash file contents: last durable state plus a
  // prefix of the since-flush writes, possibly one torn.
  std::vector<std::uint8_t> img = stable_;
  img.resize(blocks_ * kBlockBytes);
  std::size_t n = std::min(prefix, write_log_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const LoggedWrite& w = write_log_[i];
    std::memcpy(img.data() + w.offset, w.data.data(), w.data.size());
  }
  if (tear_bytes > 0 && n < write_log_.size()) {
    const LoggedWrite& w = write_log_[n];
    std::memcpy(img.data() + w.offset, w.data.data(),
                std::min(tear_bytes, w.data.size()));
  }
  USK_TRY(pwrite_raw(0, img.data(), img.size()));
  if (::fsync(fd_) != 0) return host_errno();
  // The crash state is the new reality; recovery re-enables capture.
  capture_ = false;
  stable_.clear();
  write_log_.clear();
  flush_marks_.clear();
  return {};
}

Result<void> BackingImage::corrupt_bytes(std::uint64_t offset,
                                         std::size_t len) {
  std::lock_guard lk(mu_);
  if (fd_ < 0) return Errno::kEBADF;
  if (offset + len > blocks_ * kBlockBytes) return Errno::kEINVAL;
  std::vector<std::uint8_t> junk(len);
  USK_TRY(pread_raw(offset, junk.data(), len));
  for (std::uint8_t& b : junk) b ^= 0xA5;
  return pwrite_raw(offset, junk.data(), len);
}

}  // namespace usk::store
