#include "fs/memfs.hpp"

#include <algorithm>
#include <cstring>

namespace usk::fs {

MemFs::MemFs() {
  Inode root;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.nlink = 2;
  inodes_.emplace(kRootIno, std::move(root));
}

MemFs::Inode* MemFs::get(InodeNum ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

Result<MemFs::Inode*> MemFs::get_dir(InodeNum ino) {
  Inode* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type != FileType::kDirectory) return Errno::kENOTDIR;
  return n;
}

Result<InodeNum> MemFs::lookup(InodeNum dir, std::string_view name) {
  charge(costs_.lookup);
  ++stats_.lookups;
  std::shared_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  auto it = d.value()->children.find(name);
  if (it == d.value()->children.end()) return Errno::kENOENT;
  return it->second;
}

Result<InodeNum> MemFs::create(InodeNum dir, std::string_view name,
                               FileType type, std::uint32_t mode) {
  charge(costs_.create);
  ++stats_.creates;
  if (name.empty() || name.size() > kMaxName) return Errno::kENAMETOOLONG;
  if (name.find('/') != std::string_view::npos) return Errno::kEINVAL;
  std::unique_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  if (d.value()->children.contains(name)) return Errno::kEEXIST;

  Inode node;
  node.type = type;
  node.mode = mode;
  node.nlink = type == FileType::kDirectory ? 2 : 1;
  node.atime = node.mtime = node.ctime = now();

  InodeNum ino = next_ino_++;
  inodes_.emplace(ino, std::move(node));
  d.value()->children.emplace(std::string(name), ino);
  d.value()->mtime = now();
  ++d.value()->dir_gen;
  if (type == FileType::kDirectory) ++d.value()->nlink;
  return ino;
}

Result<void> MemFs::unlink(InodeNum dir, std::string_view name) {
  charge(costs_.remove);
  ++stats_.removes;
  std::unique_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  auto it = d.value()->children.find(name);
  if (it == d.value()->children.end()) return Errno::kENOENT;
  Inode* victim = get(it->second);
  if (victim == nullptr) return Errno::kEIO;
  if (victim->type == FileType::kDirectory) return Errno::kEISDIR;
  if (--victim->nlink == 0) inodes_.erase(it->second);
  d.value()->children.erase(it);
  d.value()->mtime = now();
  ++d.value()->dir_gen;
  return Errno::kOk;
}

Result<void> MemFs::link(InodeNum dir, std::string_view name, InodeNum target) {
  charge(costs_.create);
  if (name.empty() || name.size() > kMaxName) return Errno::kENAMETOOLONG;
  std::unique_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  Inode* t = get(target);
  if (t == nullptr) return Errno::kENOENT;
  if (t->type == FileType::kDirectory) return Errno::kEPERM;
  if (d.value()->children.contains(name)) return Errno::kEEXIST;
  d.value()->children.emplace(std::string(name), target);
  ++t->nlink;
  t->ctime = now();
  d.value()->mtime = now();
  ++d.value()->dir_gen;
  return Errno::kOk;
}

Result<void> MemFs::chmod(InodeNum ino, std::uint32_t mode) {
  charge(costs_.getattr);
  std::unique_lock g(rw_);
  Inode* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  n->mode = mode;
  n->ctime = now();
  return Errno::kOk;
}

Result<void> MemFs::rmdir(InodeNum dir, std::string_view name) {
  charge(costs_.remove);
  ++stats_.removes;
  std::unique_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  auto it = d.value()->children.find(name);
  if (it == d.value()->children.end()) return Errno::kENOENT;
  Inode* victim = get(it->second);
  if (victim == nullptr) return Errno::kEIO;
  if (victim->type != FileType::kDirectory) return Errno::kENOTDIR;
  if (!victim->children.empty()) return Errno::kENOTEMPTY;
  dir_cache_.erase(it->second);
  inodes_.erase(it->second);
  d.value()->children.erase(it);
  --d.value()->nlink;
  d.value()->mtime = now();
  ++d.value()->dir_gen;
  return Errno::kOk;
}

Result<void> MemFs::rename(InodeNum src_dir, std::string_view src_name,
                    InodeNum dst_dir, std::string_view dst_name) {
  charge(costs_.rename);
  std::unique_lock g(rw_);
  auto sd = get_dir(src_dir);
  if (!sd) return sd.error();
  auto dd = get_dir(dst_dir);
  if (!dd) return dd.error();
  auto sit = sd.value()->children.find(src_name);
  if (sit == sd.value()->children.end()) return Errno::kENOENT;
  InodeNum moving = sit->second;

  // Replace an existing regular-file target, POSIX style.
  auto dit = dd.value()->children.find(dst_name);
  if (dit != dd.value()->children.end()) {
    // POSIX: renaming a file onto itself (same entry, or another hard
    // link to the same inode) succeeds and changes nothing.
    if (dit->second == moving) return Errno::kOk;
    Inode* target = get(dit->second);
    if (target == nullptr) return Errno::kEIO;
    if (target->type == FileType::kDirectory) {
      if (!target->children.empty()) return Errno::kENOTEMPTY;
      inodes_.erase(dit->second);
      --dd.value()->nlink;
    } else if (--target->nlink == 0) {
      inodes_.erase(dit->second);
    }
    dd.value()->children.erase(dit);
  }

  sd.value()->children.erase(sit);
  dd.value()->children.emplace(std::string(dst_name), moving);
  Inode* node = get(moving);
  if (node != nullptr && node->type == FileType::kDirectory &&
      src_dir != dst_dir) {
    --sd.value()->nlink;
    ++dd.value()->nlink;
  }
  sd.value()->mtime = now();
  dd.value()->mtime = now();
  ++sd.value()->dir_gen;
  ++dd.value()->dir_gen;
  return Errno::kOk;
}

Result<void> MemFs::touch_blocks(InodeNum ino, std::uint64_t offset,
                                 std::size_t len, bool write) {
  if (io_ == nullptr || len == 0) return {};
  constexpr std::uint64_t kBlock = blockdev::kBlockBytes;
  constexpr blockdev::Lba kExtentBlocks = 1024;  // 4 MiB strip per inode
  auto it = extent_.find(ino);
  if (it == extent_.end()) {
    it = extent_.emplace(ino, next_extent_).first;
    next_extent_ += kExtentBlocks;
  }
  std::uint64_t first = offset / kBlock;
  std::uint64_t last = (offset + len - 1) / kBlock;
  for (std::uint64_t b = first; b <= last; ++b) {
    blockdev::Lba lba =
        (it->second + b % kExtentBlocks) % io_->disk().size();
    if (write) {
      USK_TRY(io_->write(lba));
    } else {
      USK_TRY(io_->read(lba));
    }
  }
  return {};
}

Result<std::size_t> MemFs::read(InodeNum ino, std::uint64_t offset,
                                std::span<std::byte> out) {
  ++stats_.reads;
  // Concurrent readers share the lock unless an io model is attached (the
  // buffer cache and extent map are not read-safe).
  if (io_ != nullptr) {
    std::unique_lock g(rw_);
    return read_locked(ino, offset, out);
  }
  std::shared_lock g(rw_);
  return read_locked(ino, offset, out);
}

Result<std::size_t> MemFs::read_locked(InodeNum ino, std::uint64_t offset,
                                       std::span<std::byte> out) {
  Inode* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type == FileType::kDirectory) return Errno::kEISDIR;
  if (offset >= n->data.size()) {
    charge(costs_.getattr);
    return std::size_t{0};
  }
  std::size_t len = std::min<std::size_t>(out.size(), n->data.size() - offset);
  charge(costs_.data_per_kib * (len + 1023) / 1024 + 8);
  USK_TRY(touch_blocks(ino, offset, len, /*write=*/false));
  // len == 0 can pair with a null out.data() (zero-length read buffer):
  // memcpy requires non-null pointers even for zero sizes.
  if (len != 0) std::memcpy(out.data(), n->data.data() + offset, len);
  // atomic_ref: concurrent shared-lock readers may race on atime.
  std::atomic_ref<std::uint64_t>(n->atime).store(now(),
                                                 std::memory_order_relaxed);
  stats_.bytes_read += len;
  return len;
}

Result<std::size_t> MemFs::write(InodeNum ino, std::uint64_t offset,
                                 std::span<const std::byte> in) {
  ++stats_.writes;
  std::unique_lock g(rw_);
  Inode* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type == FileType::kDirectory) return Errno::kEISDIR;
  std::uint64_t end = offset + in.size();
  if (end > (1ull << 32)) return Errno::kEFBIG;
  charge(costs_.data_per_kib * (in.size() + 1023) / 1024 + 10);
  USK_TRY(touch_blocks(ino, offset, in.size(), /*write=*/true));
  if (end > n->data.size()) n->data.resize(end);
  if (!in.empty()) std::memcpy(n->data.data() + offset, in.data(), in.size());
  n->mtime = now();
  stats_.bytes_written += in.size();
  return in.size();
}

Result<void> MemFs::truncate(InodeNum ino, std::uint64_t size) {
  charge(costs_.truncate);
  std::unique_lock g(rw_);
  Inode* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  if (n->type == FileType::kDirectory) return Errno::kEISDIR;
  n->data.resize(size);
  n->mtime = now();
  return Errno::kOk;
}

Result<void> MemFs::getattr(InodeNum ino, StatBuf* st) {
  charge(costs_.getattr);
  ++stats_.getattrs;
  std::shared_lock g(rw_);
  Inode* n = get(ino);
  if (n == nullptr) return Errno::kENOENT;
  st->ino = ino;
  st->type = n->type;
  st->mode = n->mode;
  st->nlink = n->nlink;
  st->size = n->type == FileType::kDirectory
                 ? n->children.size() * 32  // directory "size"
                 : n->data.size();
  st->blocks = (st->size + 511) / 512;
  // atomic_ref pairs with the shared-lock atime update in read_locked.
  st->atime = std::atomic_ref<std::uint64_t>(n->atime).load(
      std::memory_order_relaxed);
  st->mtime = n->mtime;
  st->ctime = n->ctime;
  return Errno::kOk;
}

Result<std::vector<DirEntry>> MemFs::readdir(InodeNum dir) {
  ++stats_.readdirs;
  std::shared_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  charge(costs_.readdir_base +
         costs_.readdir_per_entry * d.value()->children.size());
  std::vector<DirEntry> out;
  out.reserve(d.value()->children.size());
  for (const auto& [name, ino] : d.value()->children) {
    Inode* child = get(ino);
    out.push_back(DirEntry{
        name, ino, child != nullptr ? child->type : FileType::kRegular});
  }
  return out;
}

const std::vector<DirEntry>& MemFs::dir_snapshot(InodeNum ino, Inode& dir) {
  DirCache& cache = dir_cache_[ino];
  if (cache.gen != dir.dir_gen) {
    cache.entries.clear();
    cache.entries.reserve(dir.children.size());
    for (const auto& [name, child_ino] : dir.children) {
      Inode* child = get(child_ino);
      cache.entries.push_back(DirEntry{
          name, child_ino,
          child != nullptr ? child->type : FileType::kRegular});
    }
    cache.gen = dir.dir_gen;
  }
  return cache.entries;
}

Result<std::vector<DirEntry>> MemFs::readdir_window(InodeNum dir,
                                                    std::size_t start,
                                                    std::size_t max_entries) {
  ++stats_.readdirs;
  // Exclusive: dir_snapshot (re)builds the per-directory listing cache.
  std::unique_lock g(rw_);
  auto d = get_dir(dir);
  if (!d) return d.error();
  const std::vector<DirEntry>& all = dir_snapshot(dir, *d.value());
  if (start >= all.size()) {
    charge(costs_.readdir_base);
    return std::vector<DirEntry>{};
  }
  std::size_t count = std::min(max_entries, all.size() - start);
  charge(costs_.readdir_base + costs_.readdir_per_entry * count);
  return std::vector<DirEntry>(
      all.begin() + static_cast<std::ptrdiff_t>(start),
      all.begin() + static_cast<std::ptrdiff_t>(start + count));
}

}  // namespace usk::fs
