// A store image on an anonymous tmpfs file (memfd), opened by its
// /proc/self/fd path as uskbench postmark-store does: nothing reaches a
// real file system and nothing outlives the test.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <string>

namespace usk::testutil {

class MemImage {
 public:
  MemImage() : fd_(memfd_create("usk-test-image", MFD_CLOEXEC)) {
    if (fd_ >= 0) path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~MemImage() {
    if (fd_ >= 0) ::close(fd_);
  }
  MemImage(const MemImage&) = delete;
  MemImage& operator=(const MemImage&) = delete;

  /// Empty if the memfd could not be created.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int fd_;
  std::string path_;
};

}  // namespace usk::testutil
