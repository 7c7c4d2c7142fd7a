#include "fs/procfs.hpp"

#include <algorithm>
#include <cstring>

namespace usk::fs {

namespace {
/// Split "/a/b/c" into components; empty components are skipped.
std::vector<std::string_view> split(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t start = i;
    while (i < path.size() && path[i] != '/') ++i;
    if (i > start) parts.push_back(path.substr(start, i - start));
  }
  return parts;
}
}  // namespace

ProcFs::ProcFs() {
  Node root;
  root.type = FileType::kDirectory;
  root.mode = 0555;
  nodes_.emplace(kRootIno, std::move(root));
}

ProcFs::Node* ProcFs::get(InodeNum ino) {
  auto it = nodes_.find(ino);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::pair<InodeNum, std::string> ProcFs::ensure_parents(
    std::string_view path) {
  auto parts = split(path);
  if (parts.empty()) return {kInvalidInode, std::string()};
  InodeNum cur = kRootIno;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    Node* dir = get(cur);
    auto it = dir->children.find(parts[i]);
    if (it != dir->children.end()) {
      cur = it->second;
      continue;
    }
    InodeNum ino = next_ino_++;
    Node d;
    d.type = FileType::kDirectory;
    d.mode = 0555;
    dir->children.emplace(std::string(parts[i]), ino);
    nodes_.emplace(ino, std::move(d));
    cur = ino;
  }
  return {cur, std::string(parts.back())};
}

InodeNum ProcFs::add_file(std::string_view path, Renderer render,
                          WriteHandler on_write) {
  std::lock_guard lk(mu_);
  auto [dir_ino, leaf] = ensure_parents(path);
  if (dir_ino == kInvalidInode) return kInvalidInode;
  Node* dir = get(dir_ino);
  auto it = dir->children.find(leaf);
  InodeNum ino;
  if (it != dir->children.end()) {
    ino = it->second;
  } else {
    ino = next_ino_++;
    dir->children.emplace(leaf, ino);
    nodes_.emplace(ino, Node{});
  }
  Node* n = get(ino);
  n->type = FileType::kRegular;
  n->mode = on_write ? 0644 : 0444;
  n->render = std::move(render);
  n->on_write = std::move(on_write);
  return ino;
}

InodeNum ProcFs::add_dir(std::string_view path) {
  std::lock_guard lk(mu_);
  auto parts = split(path);
  InodeNum cur = kRootIno;
  for (const auto& part : parts) {
    Node* dir = get(cur);
    auto it = dir->children.find(part);
    if (it != dir->children.end()) {
      cur = it->second;
      continue;
    }
    InodeNum ino = next_ino_++;
    Node d;
    d.type = FileType::kDirectory;
    d.mode = 0555;
    dir->children.emplace(std::string(part), ino);
    nodes_.emplace(ino, std::move(d));
    cur = ino;
  }
  return cur;
}

void ProcFs::add_gauge(const char* name, const char* help, GaugeFn fn) {
  add_gauges(name, help, nullptr, [fn = std::move(fn)] {
    return Rows<std::int64_t>{{std::string(), fn()}};
  });
}

void ProcFs::add_gauges(const char* name, const char* help, const char* label,
                        GaugeRowsFn fn, const void* owner) {
  std::lock_guard lk(metrics_mu_);
  families_.push_back(Family{name, help, label, owner, std::move(fn), {}});
}

void ProcFs::add_summary(const char* name, const char* help,
                         const char* label, SummaryRowsFn fn,
                         const void* owner) {
  std::lock_guard lk(metrics_mu_);
  families_.push_back(Family{name, help, label, owner, {}, std::move(fn)});
}

void ProcFs::remove_metrics(const void* owner) {
  std::lock_guard lk(metrics_mu_);
  std::erase_if(families_,
                [owner](const Family& f) { return f.owner == owner; });
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
  if (it == d->children.end()) return Errno::kENOENT;
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

void ProcFs::render_locked(InodeNum, Node& n) {
  if (n.render) n.snapshot = n.render();
}

Result<void> ProcFs::open_file(InodeNum ino) {
  std::lock_guard lk(mu_);
  Node* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type == FileType::kRegular) render_locked(ino, *n);
  return Errno::kOk;
}

Result<std::size_t> ProcFs::read(InodeNum ino, std::uint64_t offset,
                                 std::span<std::byte> out) {
  std::lock_guard lk(mu_);
  Node* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type != FileType::kRegular) return Errno::kEISDIR;
  // A fresh sequential read re-renders, so readers that seek back to 0
  // (or never open_file'd, e.g. direct FileSystem users) see live data.
  if (offset == 0) render_locked(ino, *n);
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
    out.push_back(DirEntry{name, ino, nodes_.at(ino).type});
  }
  return out;
}

}  // namespace usk::fs
