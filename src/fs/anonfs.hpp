// AnonFs: the anonymous-inode filesystem behind fd-bound kernel objects.
//
// Sockets, epoll instances and rings exist only behind file descriptors,
// the way Linux backs epoll, io_uring and bpf() map fds with
// anon_inode_getfd. One AnonFs<T> holds every live object of one kind:
// it numbers them (inodes from 1, per instance), installs descriptors for
// them, resolves a descriptor back to its object and keeps each object's
// fd count.
//
// Lifetime: an object is registered before any fd refers to it, with a
// count of 1 (a connection queued on a listener is registered and counted
// while it waits for accept). install() hands that count to the new fd;
// dup(2) adds one and close(2) takes one away. The release that takes the
// count to zero -- the last close, or a failed install -- runs the
// owner's last-close action, which unregisters the object (remove());
// with no action given, AnonFs unregisters it itself.
//
// Per-kind semantics stay with the owner: the errno a descriptor of
// another kind gets from of(), and (Ops) what read(2), write(2) and
// fstat(2) do on such an fd, EINVAL where the owner gives no operation.
// Namespace operations are refused: an anonymous inode has no name.
//
// Locking: one mutex per instance guards the map and the counts. No Ops
// callback runs under it, so an owner may hold its own locks around
// calls into AnonFs and take them inside its callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "fs/filesystem.hpp"
#include "fs/vfs.hpp"

namespace usk::fs {

/// fs_id of every anonymous-inode descriptor: such fds take no part in
/// path walks or mount bookkeeping, which is all fs_id is for.
inline constexpr std::uint32_t kAnonFsId = 0xFFFFFFFFu;

template <typename T>
class AnonFs final : public FileSystem {
 public:
  /// The owner's per-kind operations.
  struct Ops {
    /// read(2)/write(2)/fstat(2) on the fd; empty = EINVAL. stat fills
    /// in the type and size of a StatBuf that carries ino and mode.
    std::function<Result<std::size_t>(T&, std::span<std::byte>)> read;
    std::function<Result<std::size_t>(T&, std::span<const std::byte>)> write;
    std::function<void(T&, StatBuf*)> stat;
    /// Runs once the fd count reaches zero; it must remove() the object.
    std::function<void(const std::shared_ptr<T>&)> last_close;
  };

  /// A live object and its fd count, as /proc renders it.
  struct Live {
    std::shared_ptr<T> obj;
    int fds;
  };

  /// `wrong_kind` is what of() answers for an fd of another kind.
  AnonFs(const char* fstype, Errno wrong_kind, Ops ops = {})
      : fstype_(fstype), wrong_kind_(wrong_kind), ops_(std::move(ops)) {}

  /// Register a new object T(ino, args...) with a count of 1.
  template <typename... Args>
  std::shared_ptr<T> add(Args&&... args) {
    std::lock_guard lk(mu_);
    const InodeNum ino = next_ino_++;
    auto obj = std::make_shared<T>(ino, std::forward<Args>(args)...);
    objs_.emplace(ino, Entry{obj, 1});
    return obj;
  }

  /// Unregister `ino`; a no-op when it is already gone.
  void remove(InodeNum ino) {
    std::lock_guard lk(mu_);
    objs_.erase(ino);
  }

  /// Install a descriptor for registered object `ino`; it takes over the
  /// registration's count. When the table refuses (EMFILE) that count is
  /// released instead, so the last-close action undoes the registration.
  Result<int> install(FdTable& fds, InodeNum ino) {
    OpenFile f;
    f.ino = ino;
    f.flags = kORdWr;
    f.fsp = this;
    f.fs_id = kAnonFsId;
    Result<int> fd = fds.install(f);
    if (!fd) release_file(ino);
    return fd;
  }

  /// The object behind `fd`: EBADF when there is no such fd, the owner's
  /// wrong-kind errno when it names anything else.
  Result<std::shared_ptr<T>> of(FdTable& fds, int fd) {
    const OpenFile* f = fds.get(fd);
    if (f == nullptr) return Errno::kEBADF;
    if (f->fsp != this) return wrong_kind_;
    std::shared_ptr<T> obj = find(f->ino);
    if (obj == nullptr) return wrong_kind_;
    return obj;
  }

  [[nodiscard]] std::shared_ptr<T> find(InodeNum ino) const {
    std::lock_guard lk(mu_);
    auto it = objs_.find(ino);
    return it == objs_.end() ? nullptr : it->second.obj;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lk(mu_);
    return objs_.size();
  }

  /// Every registered object in inode order, with its fd count.
  [[nodiscard]] std::vector<Live> snapshot() const {
    std::lock_guard lk(mu_);
    std::vector<Live> out;
    out.reserve(objs_.size());
    for (const auto& [ino, e] : objs_) out.push_back(Live{e.obj, e.fds});
    return out;
  }

  // --- fs::FileSystem ------------------------------------------------------
  [[nodiscard]] InodeNum root() const override { return kInvalidInode; }
  [[nodiscard]] const char* fstype() const override { return fstype_; }

  Result<InodeNum> lookup(InodeNum, std::string_view) override {
    return Errno::kENOENT;
  }
  Result<InodeNum> create(InodeNum, std::string_view, FileType,
                          std::uint32_t) override {
    return Errno::kEPERM;
  }
  Result<void> unlink(InodeNum, std::string_view) override {
    return Errno::kEPERM;
  }
  Result<void> rmdir(InodeNum, std::string_view) override {
    return Errno::kEPERM;
  }
  Result<void> rename(InodeNum, std::string_view, InodeNum,
                      std::string_view) override {
    return Errno::kEPERM;
  }
  Result<void> truncate(InodeNum, std::uint64_t) override {
    return Errno::kEINVAL;
  }
  Result<std::vector<DirEntry>> readdir(InodeNum) override {
    return Errno::kENOTDIR;
  }

  /// A stream has no offset: the VFS file position is ignored.
  Result<std::size_t> read(InodeNum ino, std::uint64_t,
                           std::span<std::byte> out) override {
    std::shared_ptr<T> obj = find(ino);
    if (obj == nullptr || !ops_.read) return Errno::kEINVAL;
    return ops_.read(*obj, out);
  }
  Result<std::size_t> write(InodeNum ino, std::uint64_t,
                            std::span<const std::byte> in) override {
    std::shared_ptr<T> obj = find(ino);
    if (obj == nullptr || !ops_.write) return Errno::kEINVAL;
    return ops_.write(*obj, in);
  }
  Result<void> getattr(InodeNum ino, StatBuf* st) override {
    std::shared_ptr<T> obj = find(ino);
    if (obj == nullptr || !ops_.stat) return Errno::kEINVAL;
    *st = StatBuf{};
    st->ino = ino;
    st->mode = 0600;
    ops_.stat(*obj, st);
    return Errno::kOk;
  }

  void dup_file(InodeNum ino) override {
    std::lock_guard lk(mu_);
    if (auto it = objs_.find(ino); it != objs_.end()) ++it->second.fds;
  }

  void release_file(InodeNum ino) override {
    std::shared_ptr<T> last;
    {
      std::lock_guard lk(mu_);
      auto it = objs_.find(ino);
      if (it == objs_.end() || --it->second.fds > 0) return;
      if (!ops_.last_close) {
        objs_.erase(it);
        return;
      }
      last = it->second.obj;
    }
    ops_.last_close(last);
  }

 private:
  struct Entry {
    std::shared_ptr<T> obj;
    int fds;  ///< descriptors (plus a not-yet-installed registration)
  };

  const char* const fstype_;
  const Errno wrong_kind_;
  const Ops ops_;
  mutable std::mutex mu_;
  InodeNum next_ino_ = 1;
  std::map<InodeNum, Entry> objs_;
};

}  // namespace usk::fs
