#include "fs/procfs.hpp"

#include <algorithm>
#include <cstring>

namespace usk::fs {

ProcFs::ProcFs() {
  Node& root = nodes_[kRootIno];
  root.type = FileType::kDirectory;
  root.mode = 0555;
}

ProcFs::Node* ProcFs::get(InodeNum ino) {
  auto it = nodes_.find(ino);
  if (it == nodes_.end()) return nullptr;
  Node& n = it->second;
  return n.type == FileType::kDirectory || n.render ? &n : nullptr;
}

Result<InodeNum> ProcFs::add_file(std::string_view path, Renderer render,
                                  WriteHandler on_write) {
  if (!render) return Errno::kEINVAL;
  std::lock_guard lk(mu_);
  InodeNum ino = kRootIno;
  PathComponents parts(path);
  for (auto part = parts.next(); !part.empty(); part = parts.next()) {
    Node& dir = nodes_.at(ino);
    if (dir.type != FileType::kDirectory) {
      if (dir.render) return Errno::kENOTDIR;
      dir.type = FileType::kDirectory;  // a removed file's name, reused
      dir.mode = 0555;
    }
    auto [it, fresh] = dir.children.try_emplace(std::string(part), next_ino_);
    ino = it->second;
    if (fresh) nodes_.emplace(next_ino_++, Node{});
  }
  // Every component but the leaf is a directory now; a fresh leaf is an
  // absent regular file, and so is one whose Registration took it off.
  if (ino == kRootIno) return Errno::kEINVAL;
  if (get(ino) != nullptr) return Errno::kEEXIST;
  Node& n = nodes_.at(ino);
  n.mode = on_write ? 0644 : 0444;
  n.render = std::move(render);
  n.on_write = std::move(on_write);
  return ino;
}

Errno ProcFs::add_family(Family f) {
  std::lock_guard lk(metrics_mu_);
  for (const Family& g : families_) {
    if (std::strcmp(g.name, f.name) == 0) return Errno::kEEXIST;
  }
  families_.push_back(std::move(f));
  return Errno::kOk;
}

Errno ProcFs::add_gauges(const char* name, const char* help,
                         const char* label, GaugeRowsFn fn) {
  return add_family(Family{name, help, label, std::move(fn), {}});
}

Errno ProcFs::add_summary(const char* name, const char* help,
                          const char* label, SummaryRowsFn fn) {
  return add_family(Family{name, help, label, {}, std::move(fn)});
}

// --- Registration --------------------------------------------------------------

ProcFs::Registration& ProcFs::Registration::operator=(
    Registration&& o) noexcept {
  if (this != &o) {
    reset();
    pfs_ = std::exchange(o.pfs_, nullptr);
    status_ = o.status_;
    files_ = std::exchange(o.files_, {});
    families_ = std::exchange(o.families_, {});
  }
  return *this;
}

void ProcFs::Registration::add_file(std::string_view path, Renderer render) {
  if (status_ != Errno::kOk) return;
  Result<InodeNum> r = pfs_->add_file(path, std::move(render));
  if (r) files_.push_back(r.value());
  track(nullptr, r ? Errno::kOk : r.error());
}

void ProcFs::Registration::add_gauges(const char* name, const char* help,
                                      const char* label, GaugeRowsFn fn) {
  if (status_ != Errno::kOk) return;
  track(name, pfs_->add_gauges(name, help, label, std::move(fn)));
}

void ProcFs::Registration::add_summary(const char* name, const char* help,
                                       const char* label, SummaryRowsFn fn) {
  if (status_ != Errno::kOk) return;
  track(name, pfs_->add_summary(name, help, label, std::move(fn)));
}

void ProcFs::Registration::track(const char* family, Errno e) {
  if (e != Errno::kOk) {
    reset();
    status_ = e;
  } else if (family != nullptr) {
    families_.push_back(family);
  }
}

void ProcFs::Registration::reset() {
  if (pfs_ == nullptr) return;
  // The lock order of a /metrics read: a render holds mu_ and then
  // scrapes under metrics_mu_. Holding both waits out either in flight.
  std::lock_guard lk(pfs_->mu_);
  std::lock_guard mlk(pfs_->metrics_mu_);
  for (InodeNum ino : files_) {
    Node& n = pfs_->nodes_.at(ino);
    n.render = nullptr;
    n.snapshot = std::string();
  }
  std::erase_if(pfs_->families_, [this](const Family& f) {
    return std::ranges::count(families_, f.name) != 0;
  });
  files_.clear();
  families_.clear();
}

namespace {

/// `key="value"`, the value escaped as the text format asks.
std::string label_pair(const char* key, const std::string& value) {
  std::string out = std::string(key) + "=\"";
  for (char c : value) {
    if (c == '\\' || c == '"' || c == '\n') out += '\\';
    out += c == '\n' ? 'n' : c;
  }
  return out + '"';
}

void append_sample(std::string& out, const char* name, const char* suffix,
                   const std::string& labels, const std::string& value) {
  out += name;
  out += suffix;
  if (!labels.empty()) out += '{' + labels + '}';
  out += ' ' + value + '\n';
}

}  // namespace

std::string ProcFs::expose_metrics() const {
  std::lock_guard lk(metrics_mu_);
  std::string out;
  for (const Family& f : families_) {
    out += "# HELP ";
    out += f.name;
    out += ' ';
    out += f.help;
    out += "\n# TYPE ";
    out += f.name;
    out += f.summaries ? " summary\n" : " gauge\n";
    if (f.gauges) {
      for (const auto& [value, v] : f.gauges()) {
        append_sample(out, f.name, "",
                      f.label != nullptr ? label_pair(f.label, value) : "",
                      std::to_string(v));
      }
      continue;
    }
    for (const auto& [value, h] : f.summaries()) {
      const std::string l = label_pair(f.label, value);
      append_sample(out, f.name, "", l + ",quantile=\"0.5\"",
                    std::to_string(h.percentile(50.0)));
      append_sample(out, f.name, "", l + ",quantile=\"0.99\"",
                    std::to_string(h.percentile(99.0)));
      append_sample(out, f.name, "_sum", l, std::to_string(h.sum));
      append_sample(out, f.name, "_count", l, std::to_string(h.count));
    }
  }
  return out;
}

Result<InodeNum> ProcFs::lookup(InodeNum dir, std::string_view name) {
  std::lock_guard lk(mu_);
  Node* d = get(dir);
  if (d == nullptr) return Errno::kENOENT;
  if (d->type != FileType::kDirectory) return Errno::kENOTDIR;
  auto it = d->children.find(name);
  if (it == d->children.end() || get(it->second) == nullptr) {
    return Errno::kENOENT;
  }
  return it->second;
}

Result<InodeNum> ProcFs::create(InodeNum, std::string_view, FileType,
                                std::uint32_t) {
  return Errno::kEROFS;
}
Result<void> ProcFs::unlink(InodeNum, std::string_view) { return Errno::kEROFS; }
Result<void> ProcFs::rmdir(InodeNum, std::string_view) { return Errno::kEROFS; }
Result<void> ProcFs::rename(InodeNum, std::string_view, InodeNum,
                     std::string_view) {
  return Errno::kEROFS;
}

Result<std::size_t> ProcFs::read(InodeNum ino, std::uint64_t offset,
                                 std::span<std::byte> out) {
  std::lock_guard lk(mu_);
  Node* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type != FileType::kRegular) return Errno::kEISDIR;
  // The one render: a read at offset 0 generates the text, and the
  // following reads continue through that snapshot.
  if (offset == 0) n->snapshot = n->render();
  if (offset >= n->snapshot.size()) return std::size_t{0};
  std::size_t len =
      std::min(out.size(), n->snapshot.size() - static_cast<std::size_t>(offset));
  std::memcpy(out.data(), n->snapshot.data() + offset, len);
  return len;
}

Result<std::size_t> ProcFs::write(InodeNum ino, std::uint64_t,
                                  std::span<const std::byte> in) {
  WriteHandler handler;
  {
    std::lock_guard lk(mu_);
    Node* n = get(ino);
    if (n == nullptr) return Errno::kENOENT;
    if (n->type != FileType::kRegular) return Errno::kEISDIR;
    if (!n->on_write) return Errno::kEACCES;
    handler = n->on_write;
  }
  // Run the handler outside mu_: control handlers may render other proc
  // files (or take kernel locks) and must not deadlock against them.
  Errno e = handler(std::string_view(
      reinterpret_cast<const char*>(in.data()), in.size()));
  if (e != Errno::kOk) return e;
  return in.size();
}

Result<void> ProcFs::truncate(InodeNum ino, std::uint64_t) {
  std::lock_guard lk(mu_);
  Node* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  // O_TRUNC on a control file is a no-op (there is nothing stored).
  return n->on_write ? Errno::kOk : Errno::kEROFS;
}

Result<void> ProcFs::getattr(InodeNum ino, StatBuf* st) {
  std::lock_guard lk(mu_);
  Node* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  *st = StatBuf{};
  st->ino = ino;
  st->type = n->type;
  st->mode = n->mode;
  st->nlink = 1;
  st->size = 0;  // like the real /proc: size is unknowable until rendered
  return Errno::kOk;
}

Result<std::vector<DirEntry>> ProcFs::readdir(InodeNum dir) {
  std::lock_guard lk(mu_);
  Node* d = get(dir);
  if (d == nullptr) return Errno::kENOENT;
  if (d->type != FileType::kDirectory) return Errno::kENOTDIR;
  std::vector<DirEntry> out;
  out.reserve(d->children.size());
  for (const auto& [name, ino] : d->children) {
    if (const Node* n = get(ino)) out.push_back(DirEntry{name, ino, n->type});
  }
  return out;
}

}  // namespace usk::fs
