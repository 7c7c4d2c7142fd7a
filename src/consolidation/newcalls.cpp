#include "consolidation/newcalls.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace usk::consolidation {

using uk::Kernel;
using uk::Process;

SysRet sys_readdirplus(Kernel& k, Process& p, const char* upath, void* ubuf,
                       std::size_t n, std::uint64_t* ucookie) {
  Kernel::Scope scope(k, p, uk::Sys::kReaddirPlus);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ubuf == nullptr || ucookie == nullptr) {
    return scope.fail(Errno::kEFAULT);
  }
  char kpath[Kernel::kMaxPath];
  Result<std::string_view> path =
      k.fetch_path(p, uk::BufMode::kUser, Kernel::uarg(upath), kpath);
  if (!path) return scope.fail(path.error());

  std::uint64_t cookie = 0;
  if (Result<std::size_t> c =
          k.boundary().copy_from_user(p.task, &cookie, ucookie, sizeof(cookie));
      !c) {
    return scope.fail(c.error());
  }

  Result<fs::Vfs::Loc> dir = k.vfs().resolve_loc(path.value());
  if (!dir) return scope.fail(dir.error());

  n = std::min(n, Kernel::kMaxIo);
  std::size_t max_entries =
      std::max<std::size_t>(1, n / sizeof(uk::DirentPlusHdr));
  Result<std::vector<fs::DirEntry>> win =
      k.vfs().readdir_window_at(dir.value(), cookie, max_entries);
  if (!win) return scope.fail(win.error());

  std::vector<std::byte> kbuf(n);
  std::size_t off = 0;
  std::uint64_t taken = 0;
  for (const fs::DirEntry& de : win.value()) {
    std::size_t rec = sizeof(uk::DirentPlusHdr) + de.name.size();
    if (off + rec > n) break;
    uk::DirentPlusHdr hdr{};
    // In-kernel stat: no extra crossing, no path re-walk (we already hold
    // the inode number).
    Errno e = k.vfs().getattr_at(
        fs::Vfs::Loc{dir.value().fs, de.ino, dir.value().fs_id}, &hdr.st);
    if (e != Errno::kOk) continue;  // raced with unlink; skip
    hdr.namelen = static_cast<std::uint8_t>(de.name.size());
    std::memcpy(kbuf.data() + off, &hdr, sizeof(hdr));
    std::memcpy(kbuf.data() + off + sizeof(hdr), de.name.data(),
                de.name.size());
    off += rec;
    ++taken;
  }
  // Entries first, cookie second: if either copy-out faults the cookie in
  // user memory still matches what the user actually received.
  if (off > 0) {
    if (Result<std::size_t> c =
            k.boundary().copy_to_user(p.task, ubuf, kbuf.data(), off);
        !c) {
      return scope.fail(c.error());
    }
  }
  cookie += taken;
  if (Result<std::size_t> c =
          k.boundary().copy_to_user(p.task, ucookie, &cookie, sizeof(cookie));
      !c) {
    return scope.fail(c.error());
  }
  return scope.done(static_cast<SysRet>(off));
}

// The three open-*-close calls below are sequences of the kernel's own
// handlers under one Scope: one crossing, classic semantics per step.

namespace {
SysRet step(Kernel& k, Process& p, uk::Sys nr, std::uint64_t a0,
            std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
  return k.dispatch_nested(p, nr, {a0, a1, a2, 0});
}
}  // namespace

SysRet sys_open_read_close(Kernel& k, Process& p, const char* upath,
                           void* ubuf, std::size_t n, std::uint64_t offset) {
  Kernel::Scope scope(k, p, uk::Sys::kOpenReadClose);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ubuf == nullptr) return scope.fail(Errno::kEFAULT);
  const SysRet fd =
      step(k, p, uk::Sys::kOpen, Kernel::uarg(upath), fs::kORdOnly);
  if (fd < 0) return scope.done(fd);
  const auto ufd = static_cast<std::uint64_t>(fd);
  SysRet r = step(k, p, uk::Sys::kLseek, ufd, offset, fs::kSeekSet);
  if (r >= 0) r = step(k, p, uk::Sys::kRead, ufd, Kernel::uarg(ubuf), n);
  step(k, p, uk::Sys::kClose, ufd);
  return scope.done(r);
}

SysRet sys_open_write_close(Kernel& k, Process& p, const char* upath,
                            const void* ubuf, std::size_t n,
                            std::uint64_t offset, int flags) {
  Kernel::Scope scope(k, p, uk::Sys::kOpenWriteClose);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ubuf == nullptr) return scope.fail(Errno::kEFAULT);
  const int open_flags =
      fs::kOWrOnly | (flags & (fs::kOCreat | fs::kOTrunc | fs::kOAppend));
  const SysRet fd = step(k, p, uk::Sys::kOpen, Kernel::uarg(upath),
                         static_cast<std::uint64_t>(open_flags), 0644);
  if (fd < 0) return scope.done(fd);
  const auto ufd = static_cast<std::uint64_t>(fd);
  SysRet r = 0;
  if ((flags & fs::kOAppend) == 0) {
    r = step(k, p, uk::Sys::kLseek, ufd, offset, fs::kSeekSet);
  }
  if (r >= 0) r = step(k, p, uk::Sys::kWrite, ufd, Kernel::uarg(ubuf), n);
  step(k, p, uk::Sys::kClose, ufd);
  return scope.done(r);
}

SysRet sys_open_fstat(Kernel& k, Process& p, const char* upath,
                      fs::StatBuf* ust) {
  Kernel::Scope scope(k, p, uk::Sys::kOpenFstat);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ust == nullptr) return scope.fail(Errno::kEFAULT);
  const SysRet fd =
      step(k, p, uk::Sys::kOpen, Kernel::uarg(upath), fs::kORdOnly);
  if (fd < 0) return scope.done(fd);
  const auto ufd = static_cast<std::uint64_t>(fd);
  const SysRet r = step(k, p, uk::Sys::kFstat, ufd, Kernel::uarg(ust));
  step(k, p, uk::Sys::kClose, ufd);
  return scope.done(r);
}

}  // namespace usk::consolidation
