// ProcFs: a read-mostly synthetic filesystem (the /proc analogue).
//
// Nothing here is stored data: every regular file has a renderer that
// generates its text when a read starts at offset 0, so user tasks
// inspect the live kernel through ordinary open/read syscalls --
// syscalls that are themselves traced and histogrammed, closing the
// observability loop. Files stat with size 0, exactly like the real
// /proc; readers loop until read() returns 0.
//
// Control files (e.g. /proc/trace/enable) additionally take a write
// handler, making echo-into-proc the tracing UI. User namespace mutations
// (create/unlink/rename/...) fail with EROFS. Entries added on the ProcFs
// live as long as it does (the Kernel's own tree); a subsystem's leave
// with the Registration it holds. One live entry per path or family name.
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
  /// "/trace/enable"), creating intermediate directories. Returns the
  /// file's inode, or EEXIST while the path is registered.
  Result<InodeNum> add_file(std::string_view path, Renderer render,
                            WriteHandler on_write = nullptr);

  // --- /metrics -------------------------------------------------------------
  // Metric families. Their values belong to what registered them (its
  // Kernel, store, cache or SLO monitor) and are read at scrape time. A
  // family lives with this ProcFs, so two Kernels never read each other's
  // values. `name`, `help` and `label` must be literals; a name is
  // refused with EEXIST while another family holds it.

  /// A labelled family's samples: (label value, sample) per series.
  template <class V>
  using Rows = std::vector<std::pair<std::string, V>>;
  using GaugeRowsFn = std::function<Rows<std::int64_t>()>;
  using SummaryRowsFn = std::function<Rows<trace::HistogramSnapshot>()>;

  /// A gauge family, one series per row (`label` nullptr: one unlabelled
  /// series, whose row's label value is ignored).
  Errno add_gauges(const char* name, const char* help, const char* label,
                   GaugeRowsFn fn);
  /// A log2-histogram summary family (`label` required): each row's
  /// quantile 0.5 and 0.99, _sum and _count, all from its one snapshot.
  Errno add_summary(const char* name, const char* help, const char* label,
                    SummaryRowsFn fn);
  /// Prometheus text (# HELP / # TYPE / samples) of every family, in
  /// registration order: the body of /metrics.
  [[nodiscard]] std::string expose_metrics() const;

  /// The files and metric families one owner added, taken off when it is
  /// destroyed or assigned over (waiting out a render or scrape in flight).
  /// The owner declares it last, so it goes before the state its renderers
  /// read; the ProcFs must outlive it. Its files take no write handler:
  /// one runs outside mu_, where no removal could wait it out. The first
  /// refused add (EEXIST: a name another owner holds) takes off all it
  /// holds and makes later adds no-ops; status() reports that error.
  class [[nodiscard]] Registration {
   public:
    Registration() = default;  ///< holds nothing; assign one to add
    explicit Registration(ProcFs& pfs) : pfs_(&pfs) {}
    Registration(Registration&& o) noexcept { *this = std::move(o); }
    Registration& operator=(Registration&& o) noexcept;
    ~Registration() { reset(); }

    void add_file(std::string_view path, Renderer render);
    void add_gauges(const char* name, const char* help, const char* label,
                    GaugeRowsFn fn);
    void add_summary(const char* name, const char* help, const char* label,
                     SummaryRowsFn fn);
    [[nodiscard]] Errno status() const { return status_; }

   private:
    void reset();
    /// Keep `family` (nullptr: none), or on a refusal `e` drop it all.
    void track(const char* family, Errno e);

    ProcFs* pfs_ = nullptr;
    Errno status_ = Errno::kOk;
    std::vector<InodeNum> files_;
    std::vector<const char*> families_;
  };

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

  /// nullptr for an unknown or absent inode. A regular file without a
  /// renderer was taken off: it keeps its inode number, which the VFS
  /// dcache may still hold, and is absent until registered again.
  Node* get(InodeNum ino);

  struct Family {
    const char* name;
    const char* help;
    const char* label;  ///< nullptr: one unlabelled series
    GaugeRowsFn gauges;  ///< exactly one of gauges / summaries is set
    SummaryRowsFn summaries;
  };
  Errno add_family(Family f);

  mutable std::mutex mu_;
  std::unordered_map<InodeNum, Node> nodes_;
  InodeNum next_ino_ = 2;
  /// Its own lock, held across a scrape: /metrics renders the families
  /// while holding mu_ (so mu_ comes first), and a Registration must wait
  /// out a scrape.
  mutable std::mutex metrics_mu_;
  std::vector<Family> families_;
};

}  // namespace usk::fs
