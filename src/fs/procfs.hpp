// ProcFs: a read-mostly synthetic filesystem (the /proc analogue).
//
// Nothing here is stored data: every regular file has a renderer that
// generates its text when the file is opened (FileSystem::open_file), so
// user tasks inspect the live kernel through ordinary open/read syscalls
// -- syscalls that are themselves traced and histogrammed, closing the
// observability loop. Files stat with size 0, exactly like the real
// /proc; readers loop until read() returns 0.
//
// Control files (e.g. /proc/trace/enable) additionally take a write
// handler, making echo-into-proc the tracing UI. Namespace mutations
// (create/unlink/rename/...) fail with EROFS: the tree is fixed at
// registration time, before the filesystem is mounted.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fs/filesystem.hpp"
#include "trace/histogram.hpp"

namespace usk::fs {

class ProcFs final : public FileSystem {
 public:
  /// Generates a file's full text. Called on open (and on a read at
  /// offset 0, so re-reads without re-open see fresh data).
  using Renderer = std::function<std::string()>;
  /// Consumes text written to a control file.
  using WriteHandler = std::function<Errno(std::string_view)>;

  ProcFs();

  /// Register `path` (absolute within this filesystem, e.g.
  /// "/trace/enable"), creating intermediate directories. Re-registering
  /// a path replaces its handlers. Returns the file's inode.
  InodeNum add_file(std::string_view path, Renderer render,
                    WriteHandler on_write = nullptr);

  /// Create a directory (and parents). Idempotent.
  InodeNum add_dir(std::string_view path);

  // --- /metrics -------------------------------------------------------------
  // Metric families. Their values belong to what registered them (its
  // Kernel, store, cache or SLO monitor) and are read at scrape time. A
  // family lives with this ProcFs, so two Kernels never read each other's
  // values. `name`, `help` and `label` must be literals; names are not
  // de-duplicated.

  /// A labelled family's samples: (label value, sample) per series.
  template <class V>
  using Rows = std::vector<std::pair<std::string, V>>;
  using GaugeFn = std::function<std::int64_t()>;
  using GaugeRowsFn = std::function<Rows<std::int64_t>()>;
  using SummaryRowsFn = std::function<Rows<trace::HistogramSnapshot>()>;

  /// One unlabelled gauge.
  void add_gauge(const char* name, const char* help, GaugeFn fn);
  /// A gauge family, one series per row. A family added with an `owner`
  /// is taken off again by remove_metrics(owner).
  void add_gauges(const char* name, const char* help, const char* label,
                  GaugeRowsFn fn, const void* owner = nullptr);
  /// A log2-histogram summary family (`label` required): each row's
  /// quantile 0.5 and 0.99, _sum and _count, all from its one snapshot.
  void add_summary(const char* name, const char* help, const char* label,
                   SummaryRowsFn fn, const void* owner = nullptr);
  /// Take off every family added with `owner`. Once it returns, no
  /// scrape calls their functions again.
  void remove_metrics(const void* owner);
  /// Prometheus text (# HELP / # TYPE / samples) of every family, in
  /// registration order: the body of /metrics.
  [[nodiscard]] std::string expose_metrics() const;

  // --- FileSystem -----------------------------------------------------------
  [[nodiscard]] InodeNum root() const override { return kRootIno; }
  [[nodiscard]] const char* fstype() const override { return "procfs"; }

  Result<InodeNum> lookup(InodeNum dir, std::string_view name) override;
  Result<InodeNum> create(InodeNum dir, std::string_view name, FileType type,
                          std::uint32_t mode) override;
  Result<void> unlink(InodeNum dir, std::string_view name) override;
  Result<void> rmdir(InodeNum dir, std::string_view name) override;
  Result<void> rename(InodeNum src_dir, std::string_view src_name, InodeNum dst_dir,
               std::string_view dst_name) override;
  Result<std::size_t> read(InodeNum ino, std::uint64_t offset,
                           std::span<std::byte> out) override;
  Result<std::size_t> write(InodeNum ino, std::uint64_t offset,
                            std::span<const std::byte> in) override;
  Result<void> truncate(InodeNum ino, std::uint64_t size) override;
  Result<void> getattr(InodeNum ino, StatBuf* st) override;
  Result<std::vector<DirEntry>> readdir(InodeNum dir) override;
  Result<void> open_file(InodeNum ino) override;

 private:
  static constexpr InodeNum kRootIno = 1;

  struct Node {
    FileType type = FileType::kRegular;
    std::uint32_t mode = 0444;
    Renderer render;
    WriteHandler on_write;
    std::string snapshot;  ///< last rendered text (served by read())
    std::map<std::string, InodeNum, std::less<>> children;
  };

  Node* get(InodeNum ino);
  /// Walk/create directories for `path`; returns (parent dir, leaf name).
  std::pair<InodeNum, std::string> ensure_parents(std::string_view path);
  void render_locked(InodeNum ino, Node& n);

  struct Family {
    const char* name;
    const char* help;
    const char* label;  ///< nullptr: one unlabelled series
    const void* owner;
    GaugeRowsFn gauges;  ///< exactly one of gauges / summaries is set
    SummaryRowsFn summaries;
  };

  mutable std::mutex mu_;
  std::unordered_map<InodeNum, Node> nodes_;
  InodeNum next_ino_ = 2;
  /// Its own lock, held across a scrape: /metrics renders the families
  /// while holding mu_, and remove_metrics must wait out a scrape.
  mutable std::mutex metrics_mu_;
  std::vector<Family> families_;
};

}  // namespace usk::fs
