#include "fs/vfs.hpp"

#include <algorithm>

#include "trace/tracepoint.hpp"

namespace usk::fs {

// --- FdTable -------------------------------------------------------------------

Result<int> FdTable::install(const OpenFile& f) {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].has_value()) {
      files_[i] = f;
      return static_cast<int>(i);
    }
  }
  if (files_.size() >= max_fds_) return Errno::kEMFILE;
  files_.push_back(f);
  return static_cast<int>(files_.size() - 1);
}

OpenFile* FdTable::get(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= files_.size()) return nullptr;
  return files_[fd].has_value() ? &*files_[fd] : nullptr;
}

Result<void> FdTable::release(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= files_.size() ||
      !files_[fd].has_value()) {
    return Errno::kEBADF;
  }
  files_[fd].reset();
  return Errno::kOk;
}

std::size_t FdTable::open_count() const {
  return static_cast<std::size_t>(std::count_if(
      files_.begin(), files_.end(),
      [](const auto& f) { return f.has_value(); }));
}

// --- path walking -----------------------------------------------------------------

namespace {
/// The filesystem a file handle belongs to.
FileSystem& file_fs(FileSystem& root, const OpenFile& f) {
  return f.fsp != nullptr ? *f.fsp : root;
}
}  // namespace

Result<Vfs::Loc> Vfs::step(const Loc& dir, std::string_view name) {
  ++vstats_.path_components;
  InodeNum child = dcache_.lookup(dir.ino, name, dir.fs_id);
  if (child == kInvalidInode) {
    Result<InodeNum> r = dir.fs->lookup(dir.ino, name);
    if (!r) return r.error();
    child = r.value();
    dcache_.insert(dir.ino, name, child, dir.fs_id);
  }
  Loc next{dir.fs, child, dir.fs_id};
  // Mount-point redirect: a covered directory resolves to the root of the
  // filesystem mounted on it.
  auto it = mounts_.find({next.fs_id, next.ino});
  if (it != mounts_.end()) {
    ++vstats_.mount_crossings;
    next = Loc{it->second.fs, it->second.fs->root(), it->second.fs_id};
  }
  return next;
}

Result<Vfs::Parent> Vfs::walk_parent(std::string_view path) {
  if (path.empty()) return Errno::kEINVAL;
  PathComponents parts(path);
  Loc cur = root_loc();
  std::string_view part = parts.next();
  for (std::string_view after = parts.next(); !after.empty();
       after = parts.next()) {
    if (part != ".") {
      Result<Loc> next = step(cur, part);
      if (!next) return next.error();
      cur = next.value();
    }
    part = after;
  }
  return Parent{cur, part};
}

Result<Vfs::Loc> Vfs::step_leaf(const Parent& p) {
  if (p.leaf.empty() || p.leaf == ".") return p.dir;
  return step(p.dir, p.leaf);
}

Result<Vfs::Loc> Vfs::resolve_loc(std::string_view path) {
  Result<Parent> parent = walk_parent(path);
  if (!parent) return parent.error();
  return step_leaf(parent.value());
}

Result<InodeNum> Vfs::resolve(std::string_view path) {
  Result<Loc> loc = resolve_loc(path);
  if (!loc) return loc.error();
  return loc.value().ino;
}

Result<Vfs::Parent> Vfs::resolve_parent(std::string_view path) {
  Result<Parent> parent = walk_parent(path);
  if (parent && parent.value().leaf.empty()) return Errno::kEINVAL;
  return parent;
}

// --- mounts --------------------------------------------------------------------------

Result<void> Vfs::mount(std::string_view dir_path, FileSystem& fs) {
  Result<Loc> at = resolve_loc(dir_path);
  if (!at) return at.error();
  StatBuf st;
  Errno e = at.value().fs->getattr(at.value().ino, &st);
  if (e != Errno::kOk) return e;
  if (st.type != FileType::kDirectory) return Errno::kENOTDIR;
  if (at.value().fs == &fs) return Errno::kEINVAL;  // self-mount
  // resolve_loc follows mounts, so mounting on an already-covered point
  // (or on "/") resolves to some filesystem's root: one layer per point.
  if (at.value().ino == at.value().fs->root()) return Errno::kEBUSY;
  auto key = std::make_pair(at.value().fs_id, at.value().ino);
  if (mounts_.contains(key)) return Errno::kEBUSY;
  mounts_[key] = MountEntry{&fs, next_fs_id_++};
  return Errno::kOk;
}

Result<void> Vfs::unmount(std::string_view dir_path) {
  // Resolve the parent and step WITHOUT the final mount redirect: find the
  // covered directory by matching the mounted root instead.
  Result<Loc> at = resolve_loc(dir_path);
  if (!at) return at.error();
  for (auto it = mounts_.begin(); it != mounts_.end(); ++it) {
    if (it->second.fs_id == at.value().fs_id) {
      mounts_.erase(it);
      return Errno::kOk;
    }
  }
  return Errno::kEINVAL;
}

// --- file operations ------------------------------------------------------------------

Result<int> Vfs::open(FdTable& fds, std::string_view path, int flags,
                      std::uint32_t mode) {
  USK_TRACE_LATENCY("vfs", "open");
  USK_TRACEPOINT("vfs", "open", path.size(),
                 static_cast<std::uint64_t>(flags));
  ++vstats_.opens;
  // One walk: the parent directory, then the leaf, which O_CREAT creates
  // in that same directory when it is missing.
  Result<Parent> parent = walk_parent(path);
  if (!parent) return parent.error();
  Result<Loc> loc = step_leaf(parent.value());
  if (!loc) {
    if ((flags & kOCreat) == 0 || loc.error() != Errno::kENOENT) {
      return loc.error();
    }
    const auto& [dir, leaf] = parent.value();
    Result<InodeNum> created =
        dir.fs->create(dir.ino, leaf, FileType::kRegular, mode);
    if (!created) return created.error();
    dcache_.insert(dir.ino, leaf, created.value(), dir.fs_id);
    loc = Loc{dir.fs, created.value(), dir.fs_id};
  } else if ((flags & kOTrunc) != 0) {
    Errno e = loc.value().fs->truncate(loc.value().ino, 0);
    if (e != Errno::kOk) return e;
  }

  StatBuf st;
  Errno e = loc.value().fs->getattr(loc.value().ino, &st);
  if (e != Errno::kOk) return e;
  if (st.type == FileType::kDirectory && (flags & kAccessMode) != kORdOnly) {
    return Errno::kEISDIR;
  }

  OpenFile f;
  f.ino = loc.value().ino;
  f.flags = flags;
  f.pos = 0;
  f.fsp = loc.value().fs == &fs_ ? nullptr : loc.value().fs;
  f.fs_id = loc.value().fs_id;
  return fds.install(f);
}

Result<void> Vfs::close(FdTable& fds, int fd) {
  ++vstats_.closes;
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  FileSystem& ffs = file_fs(fs_, *f);
  InodeNum ino = f->ino;
  Errno e = fds.release(fd);
  if (e == Errno::kOk) ffs.release_file(ino);
  return e;
}

Result<int> Vfs::dup(FdTable& fds, int fd) {
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  OpenFile copy = *f;
  Result<int> nfd = fds.install(copy);
  if (nfd) file_fs(fs_, copy).dup_file(copy.ino);
  return nfd;
}

Result<std::size_t> Vfs::read(FdTable& fds, int fd, std::span<std::byte> out) {
  USK_TRACE_LATENCY("vfs", "read");
  USK_TRACEPOINT("vfs", "read", static_cast<std::uint64_t>(fd), out.size());
  ++vstats_.reads;
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  if ((f->flags & kAccessMode) == kOWrOnly) return Errno::kEBADF;
  Result<std::size_t> r = file_fs(fs_, *f).read(f->ino, f->pos, out);
  if (r) f->pos += r.value();
  return r;
}

Result<std::size_t> Vfs::write(FdTable& fds, int fd,
                               std::span<const std::byte> in) {
  USK_TRACE_LATENCY("vfs", "write");
  USK_TRACEPOINT("vfs", "write", static_cast<std::uint64_t>(fd), in.size());
  ++vstats_.writes;
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  if ((f->flags & kAccessMode) == kORdOnly) return Errno::kEBADF;
  FileSystem& ffs = file_fs(fs_, *f);
  if ((f->flags & kOAppend) != 0) {
    StatBuf st;
    Errno e = ffs.getattr(f->ino, &st);
    if (e != Errno::kOk) return e;
    f->pos = st.size;
  }
  Result<std::size_t> r = ffs.write(f->ino, f->pos, in);
  if (r) f->pos += r.value();
  return r;
}

Result<std::uint64_t> Vfs::lseek(FdTable& fds, int fd, std::int64_t off,
                                 int whence) {
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  std::int64_t base = 0;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = static_cast<std::int64_t>(f->pos);
      break;
    case kSeekEnd: {
      StatBuf st;
      Errno e = file_fs(fs_, *f).getattr(f->ino, &st);
      if (e != Errno::kOk) return e;
      base = static_cast<std::int64_t>(st.size);
      break;
    }
    default:
      return Errno::kEINVAL;
  }
  std::int64_t target = base + off;
  if (target < 0) return Errno::kEINVAL;
  f->pos = static_cast<std::uint64_t>(target);
  return f->pos;
}

Result<void> Vfs::fstat(FdTable& fds, int fd, StatBuf* st) {
  ++vstats_.stats_;
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  return file_fs(fs_, *f).getattr(f->ino, st);
}

Result<void> Vfs::fsync(FdTable& fds, int fd, bool datasync) {
  USK_TRACEPOINT("vfs", "fsync", static_cast<std::uint64_t>(fd), datasync);
  // EBADF-before-work: fd validity is decided before the filesystem is
  // asked to do anything (same ordering contract as read/write).
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  return file_fs(fs_, *f).fsync(f->ino, datasync);
}

Result<void> Vfs::stat(std::string_view path, StatBuf* st) {
  USK_TRACE_LATENCY("vfs", "stat");
  USK_TRACEPOINT("vfs", "stat", path.size());
  ++vstats_.stats_;
  Result<Loc> loc = resolve_loc(path);
  if (!loc) return loc.error();
  return loc.value().fs->getattr(loc.value().ino, st);
}

Result<std::vector<DirEntry>> Vfs::readdir_fd(FdTable& fds, int fd) {
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  return file_fs(fs_, *f).readdir(f->ino);
}

Result<std::vector<DirEntry>> Vfs::readdir_window(FdTable& fds, int fd,
                                                  std::size_t start,
                                                  std::size_t max_entries) {
  OpenFile* f = fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  return file_fs(fs_, *f).readdir_window(f->ino, start, max_entries);
}

Result<std::vector<DirEntry>> Vfs::readdir_window_at(
    const Loc& dir, std::size_t start, std::size_t max_entries) {
  return dir.fs->readdir_window(dir.ino, start, max_entries);
}

Result<void> Vfs::getattr_at(const Loc& loc, StatBuf* st) {
  return loc.fs->getattr(loc.ino, st);
}

// --- namespace operations ----------------------------------------------------------------

Result<void> Vfs::mkdir(std::string_view path, std::uint32_t mode) {
  auto parent = resolve_parent(path);
  if (!parent) return parent.error();
  const Loc& dir = parent.value().dir;
  Result<InodeNum> r = dir.fs->create(dir.ino, parent.value().leaf,
                                      FileType::kDirectory, mode);
  if (!r) return r.error();
  dcache_.insert(dir.ino, parent.value().leaf, r.value(), dir.fs_id);
  return Errno::kOk;
}

Result<void> Vfs::rmdir(std::string_view path) {
  auto parent = resolve_parent(path);
  if (!parent) return parent.error();
  const Loc& dir = parent.value().dir;
  Result<Loc> victim = step(dir, parent.value().leaf);
  if (victim && mounts_.contains({victim.value().fs_id,
                                  victim.value().ino})) {
    return Errno::kEBUSY;  // mounted directories cannot be removed
  }
  // A mount point itself is also busy (victim resolved INTO the mount).
  if (victim && victim.value().fs != dir.fs) return Errno::kEBUSY;
  Errno e = dir.fs->rmdir(dir.ino, parent.value().leaf);
  if (e == Errno::kOk) {
    dcache_.invalidate(dir.ino, parent.value().leaf, dir.fs_id);
    if (victim) {
      dcache_.invalidate_dir(victim.value().ino, victim.value().fs_id);
    }
  }
  return e;
}

Result<void> Vfs::unlink(std::string_view path) {
  auto parent = resolve_parent(path);
  if (!parent) return parent.error();
  const Loc& dir = parent.value().dir;
  Errno e = dir.fs->unlink(dir.ino, parent.value().leaf);
  if (e == Errno::kOk) {
    dcache_.invalidate(dir.ino, parent.value().leaf, dir.fs_id);
  }
  return e;
}

Result<void> Vfs::link(std::string_view from, std::string_view to) {
  Result<Loc> target = resolve_loc(from);
  if (!target) return target.error();
  auto parent = resolve_parent(to);
  if (!parent) return parent.error();
  const Loc& dir = parent.value().dir;
  if (dir.fs != target.value().fs) return Errno::kEXDEV;
  Errno e = dir.fs->link(dir.ino, parent.value().leaf, target.value().ino);
  if (e == Errno::kOk) {
    dcache_.insert(dir.ino, parent.value().leaf, target.value().ino,
                   dir.fs_id);
  }
  return e;
}

Result<void> Vfs::chmod(std::string_view path, std::uint32_t mode) {
  Result<Loc> loc = resolve_loc(path);
  if (!loc) return loc.error();
  return loc.value().fs->chmod(loc.value().ino, mode);
}

Result<void> Vfs::rename(std::string_view from, std::string_view to) {
  auto src = resolve_parent(from);
  if (!src) return src.error();
  auto dst = resolve_parent(to);
  if (!dst) return dst.error();
  if (src.value().dir.fs != dst.value().dir.fs) return Errno::kEXDEV;
  Errno e = src.value().dir.fs->rename(
      src.value().dir.ino, src.value().leaf, dst.value().dir.ino,
      dst.value().leaf);
  if (e == Errno::kOk) {
    dcache_.invalidate(src.value().dir.ino, src.value().leaf,
                       src.value().dir.fs_id);
    dcache_.invalidate(dst.value().dir.ino, dst.value().leaf,
                       dst.value().dir.fs_id);
  }
  return e;
}

Result<void> Vfs::truncate(std::string_view path, std::uint64_t size) {
  Result<Loc> loc = resolve_loc(path);
  if (!loc) return loc.error();
  return loc.value().fs->truncate(loc.value().ino, size);
}

}  // namespace usk::fs
