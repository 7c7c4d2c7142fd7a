// Cross-vehicle differential oracle: one syscall semantics for every
// vehicle.
//
// Seeded random programs of file syscalls -- bad descriptors, out-of-range
// buffers, missing and over-long paths included -- run as classic calls,
// as one Cosy compound, and (for the ops the ring supports: open, close,
// read, write, fstat) as unlinked ring SQEs. Every run gets a fresh
// Kernel + MemFs. All vehicles must return the same per-op results and
// errnos and leave the same tree (paths, types, bytes), the same open
// descriptors and the same bytes in their data window.
//
// The abort oracle kills a compound (kfail `cosy` site, before op k) and
// the same program run as one linked ring chain (kfail `ring.sqe_corrupt`,
// at op k). Neither may leave a descriptor the program opened, and both
// must leave the tree exactly as ops 0..k-1 left it.
//
// The net oracle runs seeded accept/recv/send/shutdown programs on
// nonblocking loopback pairs (nothing parks) as classic Net::sys_* calls
// and as unlinked ring SQEs, comparing results, the socket table, the
// bytes each socket still holds and the open descriptors.
//
// The consolidation oracle runs seeded open_read_close / open_write_close
// / open_fstat requests against their classic open/lseek/io/close
// expansion, and accept_recv / sendfile against the classic expansion the
// supervisor's fallback runs (sup/fallback.cpp). The consolidated calls'
// up-front checks -- a null buffer is EFAULT before anything else, and
// sendfile validates the socket before it opens the file -- are the
// intended differences; the classic side applies them too, and
// ConsolidatedUpFrontChecksAreTheIntendedDifference asserts them.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "consolidation/newcalls.hpp"
#include "consolidation/servercalls.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "sup/fallback.hpp"
#include "uk/kernel.hpp"

namespace usk {
namespace {

using uk::Kernel;
using uk::Sys;

/// The data window every vehicle reads into and writes from: a user
/// array (classic), the shared buffer (Cosy), the ring arena above the
/// path slot (ring).
constexpr std::size_t kWindow = 4096;
/// Ring arena bytes below the data window, holding the open path.
constexpr std::size_t kPathSlot = 8192;
/// Stands in for the fd of a failed open and for "no fd at all".
constexpr int kBadFd = 999;

enum class Kind {
  kOpen, kClose, kRead, kWrite, kFstat,  // the ring's subset comes first
  kLseek, kStat, kReaddir, kUnlink, kMkdir,
};
constexpr std::size_t kRingKinds = 5;
constexpr std::size_t kAllKinds = 10;

struct POp {
  Kind kind = Kind::kOpen;
  std::string path;        ///< open, stat, unlink, mkdir
  int flags = 0;           ///< open
  int fd_op = -1;          ///< fd = what op fd_op returned; -1 = kBadFd
  std::size_t off = 0;     ///< buffer offset in the data window
  std::size_t len = 0;     ///< read/write/readdir length
  std::int64_t seek = 0;   ///< lseek offset
  int whence = 0;          ///< lseek whence
};
using Program = std::vector<POp>;

std::size_t buf_len(const POp& op) {
  return op.kind == Kind::kStat || op.kind == Kind::kFstat
             ? sizeof(fs::StatBuf)
             : op.len;
}
bool buf_ok(const POp& op) { return op.off + buf_len(op) <= kWindow; }

/// The fd an op names, resolved against one run's own results.
int fd_of(const POp& op, const std::vector<SysRet>& res) {
  if (op.fd_op < 0 || res[static_cast<std::size_t>(op.fd_op)] < 0) {
    return kBadFd;
  }
  return static_cast<int>(res[static_cast<std::size_t>(op.fd_op)]);
}

std::vector<std::byte> window_pattern() {
  std::vector<std::byte> w(kWindow);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<std::byte>(i * 7 + 3);
  }
  return w;
}

/// A fresh machine: kernel, root MemFs, and a ring device with one ring
/// set up. Every vehicle's run builds the ring, so fd numbers line up.
struct Machine {
  Machine() {
    for (const char* d : {"/d", "/d/sub"}) {
      EXPECT_EQ(k.sys_mkdir(p, d, 0755), 0);
    }
    std::vector<std::byte> seed = window_pattern();
    for (auto [path, n] : {std::pair{"/a", 300}, std::pair{"/d/x", 100}}) {
      const SysRet fd = k.sys_open(p, path, fs::kOWrOnly | fs::kOCreat, 0644);
      EXPECT_GE(fd, 0);
      EXPECT_EQ(k.sys_write(p, static_cast<int>(fd), seed.data(), n), n);
      EXPECT_EQ(k.sys_close(p, static_cast<int>(fd)), 0);
    }
    ringfd = static_cast<int>(
        rdev.sys_ring_setup(p, 8, kPathSlot + kWindow));
    EXPECT_GE(ringfd, 0);
    ring = rdev.user_map(p, ringfd).value();
  }

  static uk::KernelConfig config() {
    uk::KernelConfig cfg;
    cfg.phys_frames = 256;
    cfg.dcache_capacity = 256;
    return cfg;
  }

  fs::MemFs fs;
  Kernel k{fs, config()};
  net::Net net{k};
  ring::RingDev rdev{k};
  uk::Process& p = k.spawn("diff");
  int ringfd = -1;
  std::shared_ptr<ring::Ring> ring;
};

using Tree = std::map<std::string, std::string>;

void walk(fs::Vfs& vfs, const std::string& dir, Tree& out) {
  Result<fs::Vfs::Loc> loc = vfs.resolve_loc(dir.empty() ? "/" : dir);
  ASSERT_TRUE(loc.ok()) << dir;
  Result<std::vector<fs::DirEntry>> ents =
      vfs.readdir_window_at(loc.value(), 0, 1 << 12);
  ASSERT_TRUE(ents.ok()) << dir;
  for (const fs::DirEntry& de : ents.value()) {
    if (de.name == "." || de.name == "..") continue;
    const std::string path = dir + "/" + de.name;
    if (de.type == fs::FileType::kDirectory) {
      out[path] = "dir";
      walk(vfs, path, out);
      continue;
    }
    fs::FdTable fds;
    Result<int> fd = vfs.open(fds, path, fs::kORdOnly, 0);
    ASSERT_TRUE(fd.ok()) << path;
    std::string bytes;
    char chunk[512];
    for (;;) {
      Result<std::size_t> n = vfs.read(
          fds, fd.value(),
          std::span(reinterpret_cast<std::byte*>(chunk), sizeof(chunk)));
      ASSERT_TRUE(n.ok()) << path;
      if (n.value() == 0) break;
      bytes.append(chunk, n.value());
    }
    (void)vfs.close(fds, fd.value());
    out[path] = "file:" + bytes;
  }
}

/// What one vehicle's run left behind.
struct Outcome {
  std::vector<SysRet> res;
  Tree tree;
  std::set<int> fds;  ///< open descriptors, the ring's own fd excluded
  std::vector<std::byte> window;
};

void capture(Machine& m, Outcome& out) {
  walk(m.k.vfs(), "", out.tree);
  for (int fd = 0; fd < 1024; ++fd) {
    if (fd != m.ringfd && m.p.fds.get(fd) != nullptr) out.fds.insert(fd);
  }
}

// --- the three vehicles ------------------------------------------------------

Outcome run_classic(const Program& prog) {
  Machine m;
  Outcome out;
  out.window = window_pattern();
  for (const POp& op : prog) {
    const std::uint64_t fd =
        static_cast<std::uint64_t>(fd_of(op, out.res));
    const std::uint64_t buf =
        buf_ok(op) ? Kernel::uarg(out.window.data() + op.off) : 0;
    const std::uint64_t path = Kernel::uarg(op.path.c_str());
    Kernel::SysArgs a{};
    Sys nr = Sys::kOpen;
    switch (op.kind) {
      case Kind::kOpen:
        a = {path, static_cast<std::uint64_t>(op.flags), 0644, 0};
        break;
      case Kind::kClose: nr = Sys::kClose; a = {fd, 0, 0, 0}; break;
      case Kind::kRead: nr = Sys::kRead; a = {fd, buf, op.len, 0}; break;
      case Kind::kWrite: nr = Sys::kWrite; a = {fd, buf, op.len, 0}; break;
      case Kind::kFstat: nr = Sys::kFstat; a = {fd, buf, 0, 0}; break;
      case Kind::kLseek:
        nr = Sys::kLseek;
        a = {fd, static_cast<std::uint64_t>(op.seek),
             static_cast<std::uint64_t>(op.whence), 0};
        break;
      case Kind::kStat: nr = Sys::kStat; a = {path, buf, 0, 0}; break;
      case Kind::kReaddir: nr = Sys::kReaddir; a = {fd, buf, op.len, 0}; break;
      case Kind::kUnlink: nr = Sys::kUnlink; a = {path, 0, 0, 0}; break;
      case Kind::kMkdir: nr = Sys::kMkdir; a = {path, 0755, 0, 0}; break;
    }
    out.res.push_back(m.k.syscall(m.p, nr, a));
  }
  capture(m, out);
  return out;
}

/// One compound for the whole program. Descriptor arguments come from
/// the classic run's results: result_of(op) where the classic open
/// succeeded, kBadFd where it failed.
Outcome run_cosy(const Program& prog, const std::vector<SysRet>& classic,
                 SysRet* compound_ret = nullptr) {
  Machine m;
  cosy::CosyExtension ext(m.k);
  cosy::SharedBuffer shared(kWindow);
  const std::vector<std::byte> init = window_pattern();
  std::memcpy(shared.data(), init.data(), kWindow);

  cosy::CompoundBuilder b;
  std::map<std::string, cosy::Arg> strs;  // the pool holds each path once
  auto str = [&](const std::string& s) {
    auto it = strs.find(s);
    if (it == strs.end()) it = strs.emplace(s, b.str(s)).first;
    return it->second;
  };
  for (const POp& op : prog) {
    const cosy::Arg fd =
        fd_of(op, classic) == kBadFd ? cosy::imm(kBadFd)
                                     : cosy::result_of(op.fd_op);
    // Past the window's end the offset goes in as a computed value, so
    // both the static and the run-time bounds checks are exercised.
    const auto off = static_cast<std::int64_t>(op.off);
    const cosy::Arg buf =
        op.off <= kWindow ? cosy::shared(off) : cosy::imm(off);
    const cosy::Arg len = cosy::imm(static_cast<std::int64_t>(op.len));
    switch (op.kind) {
      case Kind::kOpen:
        b.open(str(op.path), cosy::imm(op.flags), cosy::imm(0644));
        break;
      case Kind::kClose: b.close(fd); break;
      case Kind::kRead: b.read(fd, buf, len); break;
      case Kind::kWrite: b.write(fd, buf, len); break;
      case Kind::kFstat: b.fstat(fd, buf); break;
      case Kind::kLseek:
        b.lseek(fd, cosy::imm(op.seek), cosy::imm(op.whence));
        break;
      case Kind::kStat: b.stat(str(op.path), buf); break;
      case Kind::kReaddir: b.readdir(fd, buf, len); break;
      case Kind::kUnlink: b.unlink(str(op.path)); break;
      case Kind::kMkdir: b.mkdir(str(op.path), cosy::imm(0755)); break;
    }
  }
  cosy::CosyResult r = ext.execute(m.p, b.finish(), shared);
  if (compound_ret != nullptr) *compound_ret = r.ret;
  Outcome out;
  out.res = r.results;
  out.res.resize(prog.size());  // drop the closing kEnd
  out.window.assign(shared.data(), shared.data() + kWindow);
  capture(m, out);
  return out;
}

/// The SQE for `op`; an open's path goes into the path slot at `path_at`.
ring::Sqe make_sqe(Machine& m, const POp& op, int fd, std::uint64_t ud,
                   std::uint64_t path_at = 0) {
  ring::Sqe s{};
  s.user_data = ud;
  s.fd = fd;
  s.addr = kPathSlot + op.off;
  s.len = static_cast<std::uint32_t>(op.len);
  switch (op.kind) {
    case Kind::kOpen:
      std::memcpy(m.ring->user_data(path_at, op.path.size() + 1),
                  op.path.c_str(), op.path.size() + 1);
      s.op = ring::RingOp::kOpen;
      s.addr = path_at;
      s.len = static_cast<std::uint32_t>(op.path.size() + 1);
      s.aux = static_cast<std::uint64_t>(op.flags);
      break;
    case Kind::kClose: s.op = ring::RingOp::kClose; break;
    case Kind::kRead: s.op = ring::RingOp::kRead; break;
    case Kind::kWrite: s.op = ring::RingOp::kWrite; break;
    case Kind::kFstat: s.op = ring::RingOp::kFstat; break;
    default: ADD_FAILURE() << "op outside the ring's subset";
  }
  return s;
}

void ring_init_window(Machine& m) {
  const std::vector<std::byte> init = window_pattern();
  std::memcpy(m.ring->user_data(kPathSlot, kWindow), init.data(), kWindow);
}

void ring_finish(Machine& m, Outcome& out) {
  const std::byte* w = m.ring->user_data(kPathSlot, kWindow);
  out.window.assign(w, w + kWindow);
  capture(m, out);
}

/// Each op is its own (unlinked) SQE, submitted and reaped in turn so a
/// later op can name the fd an earlier one returned.
Outcome run_ring(const Program& prog) {
  Machine m;
  ring_init_window(m);
  Outcome out;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    EXPECT_TRUE(m.ring->user_prepare(
        make_sqe(m, prog[i], fd_of(prog[i], out.res), i)));
    EXPECT_EQ(m.rdev.sys_ring_enter(m.p, m.ringfd, ring::RingDev::kDrainAll,
                                    0, 0),
              1);
    ring::Cqe c{};
    EXPECT_EQ(m.ring->user_reap(&c, 1), 1u);
    EXPECT_EQ(c.user_data, i);
    out.res.push_back(c.res);
  }
  ring_finish(m, out);
  return out;
}

// --- program generators ------------------------------------------------------

const std::string& long_path() {
  static const std::string p = "/" + std::string(4999, 'L');
  return p;
}

std::string pick_path(base::Rng& rng) {
  static const char* kPaths[] = {"/a",    "/b",     "/d",      "/d/x",
                                 "/d/y",  "/d/sub", "/d/sub/z", "/nodir/z",
                                 "/a/no", ""};
  if (rng.chance(1, 16)) return long_path();
  return kPaths[rng.below(std::size(kPaths))];
}

Program gen_program(std::uint64_t seed, std::size_t kinds, std::size_t n) {
  static const int kFlags[] = {
      fs::kORdOnly,
      fs::kOWrOnly | fs::kOCreat,
      fs::kORdWr | fs::kOCreat,
      fs::kOWrOnly | fs::kOCreat | fs::kOTrunc,
      fs::kORdWr | fs::kOAppend,
      fs::kORdWr,
  };
  base::Rng rng(seed);
  Program prog;
  std::vector<int> opens;
  for (std::size_t i = 0; i < n; ++i) {
    POp op;
    // Opens twice as often, so most programs have live descriptors.
    const std::size_t pick = rng.below(kinds + 1);
    op.kind = pick == kinds ? Kind::kOpen : static_cast<Kind>(pick);
    op.path = pick_path(rng);
    op.flags = kFlags[rng.below(std::size(kFlags))];
    if (!opens.empty() && !rng.chance(1, 6)) {
      op.fd_op = opens[rng.below(opens.size())];
    }
    op.len = rng.below(513);
    if (rng.chance(1, 5)) {
      // Out of range: the window runs past the data window's end.
      op.len += 64;
      op.off = kWindow - 32 + rng.below(64);
    } else {
      op.off = rng.below(kWindow - std::max(op.len, sizeof(fs::StatBuf)) + 1);
    }
    op.seek = static_cast<std::int64_t>(rng.below(600)) - 8;
    op.whence = static_cast<int>(rng.below(3));
    if (op.kind == Kind::kOpen) opens.push_back(static_cast<int>(i));
    prog.push_back(op);
  }
  return prog;
}

/// A program of ring-subset ops that all succeed, at most one ring chain
/// long: opens that create or reuse a file, I/O and fstat on live fds
/// with in-range buffers, closes.
Program gen_clean_program(std::uint64_t seed) {
  static const char* kPaths[] = {"/a", "/b", "/d/x", "/d/n"};
  base::Rng rng(seed);
  Program prog;
  std::vector<int> live;
  for (std::size_t i = 0; i < ring::kMaxChain; ++i) {
    POp op;
    if (live.empty() || rng.chance(1, 4)) {
      op.kind = Kind::kOpen;
      op.path = kPaths[rng.below(std::size(kPaths))];
      op.flags = fs::kORdWr | fs::kOCreat;
      live.push_back(static_cast<int>(i));
    } else {
      const std::size_t j = rng.below(live.size());
      op.fd_op = live[j];
      op.kind = static_cast<Kind>(1 + rng.below(4));  // close/read/write/fstat
      op.len = 1 + rng.below(256);
      op.off = rng.below(kWindow - 256);
      if (op.kind == Kind::kClose) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
      }
    }
    prog.push_back(op);
  }
  return prog;
}

void expect_same(const Outcome& want, const Outcome& got, const char* who,
                 std::uint64_t seed) {
  ASSERT_EQ(want.res.size(), got.res.size()) << who << " seed " << seed;
  for (std::size_t i = 0; i < want.res.size(); ++i) {
    EXPECT_EQ(want.res[i], got.res[i])
        << who << " seed " << seed << " op " << i;
  }
  EXPECT_TRUE(want.tree == got.tree) << who << " seed " << seed << ": tree";
  EXPECT_EQ(want.fds, got.fds) << who << " seed " << seed << ": fds";
  EXPECT_TRUE(want.window == got.window)
      << who << " seed " << seed << ": data window";
}

// --- net programs: classic calls vs ring SQEs -------------------------------

/// Descriptors every net run sets up the same way: a nonblocking listener
/// with three nonblocking clients connected to it (queued, not yet
/// accepted) and a plain file.
struct NetFds {
  int lsn = -1;
  int cli[3] = {-1, -1, -1};
  int file = -1;
};

constexpr std::uint16_t kPort = 7000;

NetFds net_setup(Machine& m) {
  NetFds f;
  f.lsn = static_cast<int>(m.net.sys_socket(m.p, net::kSockNonblock));
  EXPECT_EQ(m.net.sys_bind(m.p, f.lsn, kPort), 0);
  EXPECT_EQ(m.net.sys_listen(m.p, f.lsn, 8), 0);
  for (int& c : f.cli) {
    c = static_cast<int>(m.net.sys_socket(m.p, net::kSockNonblock));
    EXPECT_EQ(m.net.sys_connect(m.p, c, kPort), 0);
  }
  f.file = static_cast<int>(m.k.sys_open(m.p, "/a", fs::kORdOnly, 0));
  EXPECT_GE(f.file, 0);
  return f;
}

enum class NKind { kAccept, kRecv, kSend, kShutdown };
/// Which descriptor a net op names.
enum class NRef { kLsn, kCli0, kCli1, kCli2, kFile, kBad, kAccepted };

struct NOp {
  NKind kind = NKind::kAccept;
  NRef ref = NRef::kLsn;
  int fd_op = -1;        ///< kAccepted: the op whose result is the fd
  std::size_t off = 0;   ///< buffer offset in the data window
  std::size_t len = 0;   ///< recv/send length
  int how = 0;           ///< shutdown mode (3 is invalid)
};
using NetProgram = std::vector<NOp>;

int net_fd(const NOp& op, const NetFds& f, const std::vector<SysRet>& res) {
  switch (op.ref) {
    case NRef::kLsn: return f.lsn;
    case NRef::kCli0: return f.cli[0];
    case NRef::kCli1: return f.cli[1];
    case NRef::kCli2: return f.cli[2];
    case NRef::kFile: return f.file;
    case NRef::kBad: return kBadFd;
    case NRef::kAccepted: break;
  }
  const SysRet r = res[static_cast<std::size_t>(op.fd_op)];
  return r < 0 ? kBadFd : static_cast<int>(r);
}

bool net_buf_ok(const NOp& op) { return op.off + op.len <= kWindow; }

/// What a net run left behind, beyond the file-vehicle Outcome.
struct NetOutcome {
  Outcome base;
  std::string sockets;                 ///< Net::format_sockets()
  std::map<int, std::string> pending;  ///< fd -> bytes still queued
};

/// The socket table plus every open socket's unread bytes (drained
/// straight from its receive queue, so a SHUT_RD socket counts too).
void capture_net(Machine& m, NetOutcome& out) {
  capture(m, out.base);
  out.sockets = m.net.format_sockets();
  for (int fd : out.base.fds) {
    const fs::OpenFile* f = m.p.fds.get(fd);
    std::shared_ptr<net::Socket> s = m.net.find_socket(f->ino);
    if (s == nullptr) continue;
    std::lock_guard lk(s->mu_);
    std::string bytes(s->rx_.size(), '\0');
    s->rx_.pop(std::as_writable_bytes(std::span(bytes)));
    out.pending[fd] = bytes;
  }
}

NetOutcome run_net_classic(const NetProgram& prog) {
  Machine m;
  const NetFds f = net_setup(m);
  NetOutcome out;
  out.base.window = window_pattern();
  for (const NOp& op : prog) {
    const int fd = net_fd(op, f, out.base.res);
    std::byte* buf = net_buf_ok(op) ? out.base.window.data() + op.off : nullptr;
    SysRet r = 0;
    switch (op.kind) {
      case NKind::kAccept: r = m.net.sys_accept(m.p, fd); break;
      case NKind::kRecv: r = m.net.sys_recv(m.p, fd, buf, op.len); break;
      case NKind::kSend: r = m.net.sys_send(m.p, fd, buf, op.len); break;
      case NKind::kShutdown: r = m.net.sys_shutdown(m.p, fd, op.how); break;
    }
    out.base.res.push_back(r);
  }
  capture_net(m, out);
  return out;
}

NetOutcome run_net_ring(const NetProgram& prog) {
  Machine m;
  const NetFds f = net_setup(m);
  ring_init_window(m);
  NetOutcome out;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const NOp& op = prog[i];
    ring::Sqe s{};
    s.user_data = i;
    s.fd = net_fd(op, f, out.base.res);
    s.addr = kPathSlot + op.off;
    s.len = static_cast<std::uint32_t>(op.len);
    s.aux = static_cast<std::uint64_t>(op.how);
    switch (op.kind) {
      case NKind::kAccept: s.op = ring::RingOp::kAccept; break;
      case NKind::kRecv: s.op = ring::RingOp::kRecv; break;
      case NKind::kSend: s.op = ring::RingOp::kSend; break;
      case NKind::kShutdown: s.op = ring::RingOp::kShutdown; break;
    }
    EXPECT_TRUE(m.ring->user_prepare(s));
    EXPECT_EQ(m.rdev.sys_ring_enter(m.p, m.ringfd, ring::RingDev::kDrainAll,
                                    0, 0),
              1);
    ring::Cqe c{};
    EXPECT_EQ(m.ring->user_reap(&c, 1), 1u);
    EXPECT_EQ(c.user_data, i);
    out.base.res.push_back(c.res);
  }
  ring_finish(m, out.base);
  capture_net(m, out);
  return out;
}

NetProgram gen_net_program(std::uint64_t seed, std::size_t n) {
  base::Rng rng(seed);
  NetProgram prog;
  std::vector<int> accepts;
  const NRef kClients[] = {NRef::kCli0, NRef::kCli1, NRef::kCli2};
  const NRef kOdd[] = {NRef::kLsn, NRef::kFile, NRef::kBad};
  for (std::size_t i = 0; i < n; ++i) {
    NOp op;
    const std::uint64_t pick = rng.below(12);
    op.kind = pick < 3    ? NKind::kAccept
              : pick < 7  ? NKind::kRecv
              : pick < 11 ? NKind::kSend
                          : NKind::kShutdown;
    if (op.kind == NKind::kAccept && !rng.chance(1, 5)) {
      op.ref = NRef::kLsn;
    } else if (!accepts.empty() && rng.chance(2, 5)) {
      op.ref = NRef::kAccepted;
      op.fd_op = accepts[rng.below(accepts.size())];
    } else if (rng.chance(3, 4)) {
      op.ref = kClients[rng.below(3)];
    } else {
      op.ref = kOdd[rng.below(3)];
    }
    op.len = 1 + rng.below(512);
    op.off = rng.below(kWindow - op.len + 1);
    if (rng.chance(1, 6)) {
      // Out of range: the buffer runs past the data window's end.
      op.off = kWindow - 32 + rng.below(64);
    } else if (rng.chance(1, 10)) {
      op.off = 0;
      op.len = Kernel::kMaxIo + 1 + rng.below(4096);
    }
    op.how = static_cast<int>(rng.below(4));
    if (op.kind == NKind::kAccept) accepts.push_back(static_cast<int>(i));
    prog.push_back(op);
  }
  return prog;
}

void expect_same_net(const NetOutcome& want, const NetOutcome& got,
                     const char* who, std::uint64_t seed) {
  expect_same(want.base, got.base, who, seed);
  EXPECT_EQ(want.sockets, got.sockets) << who << " seed " << seed;
  EXPECT_TRUE(want.pending == got.pending)
      << who << " seed " << seed << ": queued bytes";
}

// --- consolidated calls vs their classic expansion ---------------------------

/// The consolidation oracle's caller buffer: big enough that a read of
/// more than kMaxIo bytes from any file the programs can build fits.
constexpr std::size_t kBigWindow = 1 << 16;

enum class CKind {
  kOpenReadClose, kOpenWriteClose, kOpenFstat,  // file calls come first
  kAcceptRecv, kSendfile, kShutdown,
};

struct COp {
  CKind kind = CKind::kOpenReadClose;
  std::string path;        ///< file calls, sendfile
  int flags = 0;           ///< open_write_close
  NRef ref = NRef::kLsn;   ///< accept_recv listener, sendfile socket
  int fd_op = -1;          ///< NRef::kAccepted: the accept_recv op
  bool null_buf = false;   ///< the buffer (or accept_recv's fd slot) is null
  std::size_t off = 0;     ///< buffer offset in the window
  std::size_t len = 0;     ///< io length / sendfile count
  std::uint64_t foff = 0;  ///< file offset
  int how = 0;             ///< shutdown mode
};
using ConsProgram = std::vector<COp>;

/// Result of one consolidation run: per-op results plus, per op, the
/// connection fd accept_recv handed back (-1 otherwise).
struct ConsOutcome {
  NetOutcome net;
  std::vector<int> connfds;
};

int cons_fd(const COp& op, const NetFds& f, const std::vector<int>& conns) {
  if (op.ref != NRef::kAccepted) {
    return net_fd(NOp{.ref = op.ref}, f, {});
  }
  const int c = conns[static_cast<std::size_t>(op.fd_op)];
  return c < 0 ? kBadFd : c;
}

/// The three file calls, each run either consolidated or as the classic
/// syscalls it stands for.
SysRet run_file_call(Machine& m, const COp& op, std::byte* buf,
                     bool consolidated) {
  Kernel& k = m.k;
  uk::Process& p = m.p;
  const char* path = op.path.c_str();
  auto* st = reinterpret_cast<fs::StatBuf*>(buf);
  switch (op.kind) {
    case CKind::kOpenReadClose:
      if (consolidated) {
        return consolidation::sys_open_read_close(k, p, path, buf, op.len,
                                                  op.foff);
      }
      break;
    case CKind::kOpenWriteClose:
      if (consolidated) {
        return consolidation::sys_open_write_close(k, p, path, buf, op.len,
                                                   op.foff, op.flags);
      }
      break;
    case CKind::kOpenFstat:
      if (consolidated) return consolidation::sys_open_fstat(k, p, path, st);
      break;
    default:
      ADD_FAILURE() << "not a file call";
      return 0;
  }
  const bool write = op.kind == CKind::kOpenWriteClose;
  const int flags =
      write ? fs::kOWrOnly |
                  (op.flags & (fs::kOCreat | fs::kOTrunc | fs::kOAppend))
            : fs::kORdOnly;
  const SysRet fd = k.sys_open(p, path, flags, write ? 0644 : 0);
  if (fd < 0) return fd;
  const int ifd = static_cast<int>(fd);
  SysRet r = 0;
  if (op.kind == CKind::kOpenFstat) {
    r = k.sys_fstat(p, ifd, st);
  } else {
    if (!write || (op.flags & fs::kOAppend) == 0) {
      r = k.sys_lseek(p, ifd, static_cast<std::int64_t>(op.foff),
                      fs::kSeekSet);
    }
    if (r >= 0) {
      r = write ? k.sys_write(p, ifd, buf, op.len)
                : k.sys_read(p, ifd, buf, op.len);
    }
  }
  k.sys_close(p, ifd);
  return r;
}

/// Every consolidation run starts from the net setup, with two of the
/// three clients' requests already sent (the third stays silent, so its
/// accept_recv meets an empty connection).
NetFds cons_setup(Machine& m) {
  const NetFds f = net_setup(m);
  const std::vector<std::byte> req = window_pattern();
  EXPECT_EQ(m.net.sys_send(m.p, f.cli[0], req.data(), 200), 200);
  EXPECT_EQ(m.net.sys_send(m.p, f.cli[2], req.data() + 7, 300), 300);
  return f;
}

ConsOutcome run_cons(const ConsProgram& prog, bool consolidated) {
  Machine m;
  const NetFds f = cons_setup(m);
  ConsOutcome out;
  std::vector<std::byte> window(kBigWindow);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::byte>(i * 13 + 5);
  }
  std::vector<SysRet>& res = out.net.base.res;
  for (const COp& op : prog) {
    std::byte* buf = op.null_buf ? nullptr : window.data() + op.off;
    int connfd = -1;
    SysRet r = 0;
    switch (op.kind) {
      case CKind::kOpenReadClose:
      case CKind::kOpenWriteClose:
      case CKind::kOpenFstat:
        // Intended difference: a null buffer fails up front.
        if (!consolidated && buf == nullptr) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        r = run_file_call(m, op, buf, consolidated);
        break;
      case CKind::kAcceptRecv: {
        const int lfd = cons_fd(op, f, out.connfds);
        // A null request nulls either the buffer or the fd slot.
        const bool null_slot = op.null_buf && op.len % 2 == 0;
        int* uconn = null_slot ? nullptr : &connfd;
        void* ubuf = null_slot ? window.data() + op.off : buf;
        if (consolidated) {
          r = consolidation::sys_accept_recv(m.net, m.k, m.p, lfd, ubuf,
                                             op.len, uconn);
        } else if (ubuf == nullptr || uconn == nullptr) {
          r = sysret_err(Errno::kEFAULT);  // intended difference
        } else {
          r = sup::classic_accept_recv(m.net, m.p, lfd, ubuf, op.len, uconn);
        }
        break;
      }
      case CKind::kSendfile: {
        const int sfd = cons_fd(op, f, out.connfds);
        Result<std::shared_ptr<net::Socket>> sock = m.net.socket_of(m.p, sfd);
        if (consolidated) {
          r = consolidation::sys_sendfile(m.net, m.k, m.p, sfd,
                                          op.path.c_str(), op.foff, op.len);
        } else if (!sock) {
          r = sysret_err(sock.error());  // intended difference
        } else {
          r = sup::classic_sendfile(m.net, m.k, m.p, sfd, op.path.c_str(),
                                    op.foff, op.len);
        }
        break;
      }
      case CKind::kShutdown:
        r = m.net.sys_shutdown(m.p, cons_fd(op, f, out.connfds), op.how);
        break;
    }
    res.push_back(r);
    out.connfds.push_back(connfd);
  }
  out.net.base.window = std::move(window);
  capture_net(m, out.net);
  return out;
}

ConsProgram gen_cons_program(std::uint64_t seed, std::size_t kinds,
                             std::size_t n) {
  static const int kFlags[] = {0, fs::kOCreat, fs::kOCreat | fs::kOTrunc,
                               fs::kOAppend, fs::kOCreat | fs::kOAppend};
  static const char* kDocs[] = {"/a", "/d/x", "/d", "/missing", ""};
  const NRef kSockRefs[] = {NRef::kCli0, NRef::kCli1, NRef::kCli2,
                            NRef::kLsn,  NRef::kFile, NRef::kBad};
  base::Rng rng(seed);
  ConsProgram prog;
  std::vector<int> accepts;
  for (std::size_t i = 0; i < n; ++i) {
    COp op;
    op.kind = static_cast<CKind>(rng.below(kinds));
    op.path = op.kind == CKind::kSendfile ? kDocs[rng.below(std::size(kDocs))]
                                          : pick_path(rng);
    if (rng.chance(1, 16)) op.path = long_path();
    op.flags = kFlags[rng.below(std::size(kFlags))];
    op.null_buf = rng.chance(1, 8);
    op.len = rng.below(601);
    op.off = rng.below(kBigWindow / 2);
    op.foff = rng.below(700);
    op.how = static_cast<int>(rng.below(3));
    if (op.kind == CKind::kOpenReadClose && rng.chance(1, 8)) {
      op.len = Kernel::kMaxIo + 1 + rng.below(4096);  // clamped to kMaxIo
      op.off = 0;
    }
    if (op.kind == CKind::kSendfile) {
      op.len = rng.chance(1, 8) ? Kernel::kMaxIo + 7 : rng.below(12000);
    }
    if (op.kind == CKind::kAcceptRecv) {
      op.ref = rng.chance(5, 6) ? NRef::kLsn : kSockRefs[rng.below(6)];
      if (rng.chance(1, 8)) op.len = Kernel::kMaxIo + 9;
      accepts.push_back(static_cast<int>(i));
    } else if (!accepts.empty() && rng.chance(1, 2)) {
      op.ref = NRef::kAccepted;
      op.fd_op = accepts[rng.below(accepts.size())];
    } else {
      op.ref = kSockRefs[rng.below(6)];
    }
    prog.push_back(op);
  }
  return prog;
}

void expect_same_cons(const ConsOutcome& want, const ConsOutcome& got,
                      std::uint64_t seed) {
  expect_same_net(want.net, got.net, "consolidated", seed);
  EXPECT_EQ(want.connfds, got.connfds) << "consolidated seed " << seed;
}

// --- the oracles -------------------------------------------------------------

TEST(VehicleDifferential, ClassicAndCosyAgreeOnEveryOp) {
  std::map<SysRet, int> seen;  // errno -> count; 1 = any success
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Program prog = gen_program(seed, kAllKinds, 24);
    const Outcome classic = run_classic(prog);
    for (SysRet r : classic.res) ++seen[r < 0 ? r : 1];
    expect_same(classic, run_cosy(prog, classic.res), "cosy", seed);
    if (HasFailure()) return;
  }
  // The generator reaches every outcome the vehicles could disagree on.
  for (Errno e : {Errno::kEBADF, Errno::kEFAULT, Errno::kENOENT,
                  Errno::kENAMETOOLONG, Errno::kEEXIST, Errno::kEISDIR,
                  Errno::kENOTDIR, Errno::kEINVAL}) {
    EXPECT_GT(seen[sysret_err(e)], 0) << errno_name(e);
  }
  EXPECT_GT(seen[1], 1000);
}

TEST(VehicleDifferential, RingSubsetAgreesWithClassicAndCosy) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Program prog = gen_program(seed ^ 0xa5a5, kRingKinds, 16);
    const Outcome classic = run_classic(prog);
    expect_same(classic, run_cosy(prog, classic.res), "cosy", seed);
    expect_same(classic, run_ring(prog), "ring", seed);
    if (HasFailure()) return;
  }
}

TEST(VehicleDifferential, AbortBeforeOpKLeavesPrefixState) {
  fault::kfail().disarm_all();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const Program prog = gen_clean_program(seed);
    const Outcome full = run_classic(prog);
    for (SysRet r : full.res) ASSERT_GE(r, 0) << "seed " << seed;
    for (std::size_t k = 0; k < prog.size(); ++k) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " k " + std::to_string(k));
      const Program prefix(prog.begin(),
                           prog.begin() + static_cast<std::ptrdiff_t>(k));
      const Tree want = run_classic(prefix).tree;

      fault::SiteConfig cfg;
      cfg.nth = k + 1;  // the check before op k
      fault::kfail().arm(fault::Site::kCosyOp, cfg);
      SysRet ret = 0;
      const Outcome cosy = run_cosy(prog, full.res, &ret);
      fault::kfail().disarm_all();
      EXPECT_EQ(ret, sysret_err(Errno::kEINTR));
      EXPECT_TRUE(cosy.tree == want) << "cosy tree";
      EXPECT_TRUE(cosy.fds.empty()) << "cosy leaked an fd";

      // The same program as one linked chain, corrupt at SQE k.
      Machine m;
      ring_init_window(m);
      for (std::size_t i = 0; i < prog.size(); ++i) {
        // Every open of the chain gets its own place in the path slot.
        ring::Sqe s =
            make_sqe(m, prog[i], fd_of(prog[i], full.res), i, 64 * i);
        if (i + 1 < prog.size()) s.flags = ring::kSqeLink;
        ASSERT_TRUE(m.ring->user_prepare(s));
      }
      fault::kfail().arm(fault::Site::kRingSqeCorrupt, cfg);
      m.rdev.sys_ring_enter(m.p, m.ringfd, ring::RingDev::kDrainAll, 0, 0);
      fault::kfail().disarm_all();
      ring::Cqe cqes[ring::kMaxChain];
      ASSERT_EQ(m.ring->user_reap(cqes, ring::kMaxChain), prog.size());
      EXPECT_EQ(cqes[k].res, sysret_err(Errno::kEFAULT));
      Outcome ring;
      ring_finish(m, ring);
      EXPECT_TRUE(ring.tree == want) << "ring tree";
      EXPECT_TRUE(ring.fds.empty()) << "ring leaked an fd";
      if (HasFailure()) return;
    }
  }
}

TEST(VehicleDifferential, NetOpsAgreeClassicAndRing) {
  fault::kfail().disarm_all();
  std::map<SysRet, int> seen;  // errno -> count; 1 = any success, 0 = EOF
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const NetProgram prog = gen_net_program(seed, 24);
    const NetOutcome classic = run_net_classic(prog);
    for (SysRet r : classic.base.res) ++seen[r <= 0 ? r : 1];
    expect_same_net(classic, run_net_ring(prog), "ring", seed);
    if (HasFailure()) return;
  }
  for (Errno e : {Errno::kEBADF, Errno::kENOTSOCK, Errno::kEFAULT,
                  Errno::kEAGAIN, Errno::kEINVAL, Errno::kENOTCONN,
                  Errno::kEPIPE, Errno::kECONNRESET}) {
    EXPECT_GT(seen[sysret_err(e)], 0) << errno_name(e);
  }
  EXPECT_GT(seen[0], 0) << "recv after shutdown";
  EXPECT_GT(seen[1], 500);
}

TEST(VehicleDifferential, ConsolidatedCallsAgreeWithClassicExpansion) {
  fault::kfail().disarm_all();
  std::map<SysRet, int> seen;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    // File calls alone, then the whole set with the server calls.
    for (std::size_t kinds : {std::size_t{3}, std::size_t{6}}) {
      const ConsProgram prog = gen_cons_program(seed * 2 + kinds, kinds, 20);
      const ConsOutcome classic = run_cons(prog, false);
      for (SysRet r : classic.net.base.res) ++seen[r < 0 ? r : 1];
      expect_same_cons(classic, run_cons(prog, true), seed);
      if (HasFailure()) return;
    }
  }
  for (Errno e : {Errno::kEBADF, Errno::kENOTSOCK, Errno::kEFAULT,
                  Errno::kENOENT, Errno::kENAMETOOLONG, Errno::kEISDIR,
                  Errno::kEAGAIN, Errno::kEINVAL}) {
    EXPECT_GT(seen[sysret_err(e)], 0) << errno_name(e);
  }
  EXPECT_GT(seen[1], 1000);
}

TEST(VehicleDifferential, ConsolidatedUpFrontChecksAreTheIntendedDifference) {
  // Each case: the consolidated call fails before any step runs, while
  // the classic expansion of the same request gets further.
  char buf[64];
  int connfd = -1;
  {
    // open_write_close(O_CREAT) with a null buffer creates nothing; the
    // classic open creates the file before the write faults.
    Machine c;
    EXPECT_EQ(consolidation::sys_open_write_close(c.k, c.p, "/new", nullptr,
                                                  8, 0, fs::kOCreat),
              sysret_err(Errno::kEFAULT));
    fs::StatBuf st;
    EXPECT_EQ(c.k.sys_stat(c.p, "/new", &st), sysret_err(Errno::kENOENT));
    Machine m;
    EXPECT_EQ(run_file_call(m,
                            COp{.kind = CKind::kOpenWriteClose,
                                .path = "/new",
                                .flags = fs::kOCreat,
                                .len = 8},
                            nullptr, false),
              sysret_err(Errno::kEFAULT));
    EXPECT_EQ(m.k.sys_stat(m.p, "/new", &st), 0);
  }
  {
    // A missing path: EFAULT first, where the classic open says ENOENT.
    Machine m;
    EXPECT_EQ(consolidation::sys_open_read_close(m.k, m.p, "/missing",
                                                 nullptr, 8, 0),
              sysret_err(Errno::kEFAULT));
    EXPECT_EQ(consolidation::sys_open_fstat(m.k, m.p, "/missing", nullptr),
              sysret_err(Errno::kEFAULT));
    for (CKind kind : {CKind::kOpenReadClose, CKind::kOpenFstat}) {
      EXPECT_EQ(run_file_call(m, COp{.kind = kind, .path = "/missing",
                                     .len = 8},
                              nullptr, false),
                sysret_err(Errno::kENOENT));
    }
  }
  {
    // accept_recv with a null buffer or fd slot leaves the connection
    // queued; the classic accept installs its fd before recv faults.
    Machine m;
    const NetFds f = cons_setup(m);
    EXPECT_EQ(consolidation::sys_accept_recv(m.net, m.k, m.p, f.lsn, nullptr,
                                             8, &connfd),
              sysret_err(Errno::kEFAULT));
    EXPECT_EQ(consolidation::sys_accept_recv(m.net, m.k, m.p, f.lsn, buf, 8,
                                             nullptr),
              sysret_err(Errno::kEFAULT));
    EXPECT_EQ(connfd, -1);
    const std::string queued = m.net.format_listeners();
    EXPECT_EQ(sup::classic_accept_recv(m.net, m.p, f.lsn, nullptr, 8,
                                       &connfd),
              sysret_err(Errno::kEFAULT));
    EXPECT_GE(connfd, 0);
    EXPECT_NE(m.net.format_listeners(), queued);
  }
  {
    // sendfile checks the socket before it opens the file, and even when
    // there is nothing to send; the classic expansion opens first.
    Machine m;
    EXPECT_EQ(consolidation::sys_sendfile(m.net, m.k, m.p, kBadFd,
                                          "/missing", 0, 16),
              sysret_err(Errno::kEBADF));
    EXPECT_EQ(sup::classic_sendfile(m.net, m.k, m.p, kBadFd, "/missing", 0,
                                    16),
              sysret_err(Errno::kENOENT));
    EXPECT_EQ(consolidation::sys_sendfile(m.net, m.k, m.p, kBadFd, "/a", 0,
                                          0),
              sysret_err(Errno::kEBADF));
    EXPECT_EQ(sup::classic_sendfile(m.net, m.k, m.p, kBadFd, "/a", 0, 0), 0);
  }
}

}  // namespace
}  // namespace usk
