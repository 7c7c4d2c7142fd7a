// Per-test temporary directory for tests that need real files (store
// images). Each TempDir is a fresh mkdtemp directory under the system
// temp dir, removed with its contents on destruction, so tests from one
// binary can run in parallel (ctest -j) without sharing a file.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace usk::testutil {

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "usk-test-XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << tmpl;
      return;
    }
    dir_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(std::string_view name) const {
    return dir_ + "/" + std::string(name);
  }

 private:
  std::string dir_;
};

}  // namespace usk::testutil
