// Cross-vehicle differential oracle: one syscall vocabulary, one semantics
// for every vehicle.
//
// Programs are generated from the syscall signature table: each op is a
// nestable table entry, and each argument register gets a value picked by
// its kind -- a descriptor (a setup fd, an earlier op's result, or a bad
// one), a path (missing and over-long ones included), a buffer window in
// the data window (sometimes past its end), or a bounded immediate.
// Sockets are nonblocking and epoll_wait never waits, so nothing parks.
// Every run gets a fresh Kernel + MemFs + Net + ring. Classic calls, one
// Cosy compound and unlinked ring SQEs must return the same per-op results
// and errnos and leave the same tree (paths, types, bytes), the same open
// descriptors, the same socket table and queued bytes, and the same bytes
// in their data window. The oracle asserts that it ran, and saw succeed,
// every nestable table entry in every vehicle.
//
// The abort oracle kills a compound (kfail `cosy` site before op k; a kdl
// deadline expiry before op k) and the same program run as one linked
// ring chain (kfail `ring.sqe_corrupt` at op k; kdl expiry at op k).
// Neither may leave behind a descriptor the program opened -- the
// kernel's fd ledger closes them -- and both must leave the tree exactly
// as ops 0..k-1 left it.
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

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "consolidation/newcalls.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "sup/fallback.hpp"
#include "uk/kernel.hpp"

namespace usk {
namespace {

using uk::ArgType;
using uk::Kernel;
using uk::Sys;

/// The data window every vehicle reads into and writes from: a user
/// array (classic), the shared buffer (Cosy), the ring arena above the
/// path slot (ring).
constexpr std::size_t kWindow = 4096;
/// Ring arena bytes below the data window, holding the SQEs' paths.
constexpr std::size_t kPathSlot = 16384;
/// Stands in for the fd of a failed call and for "no fd at all".
constexpr int kBadFd = 999;
constexpr std::uint16_t kPort = 7000;

/// Every nestable table entry. The oracles must run each one in every
/// vehicle, so a new table entry fails here until the test covers it.
const std::set<Sys>& all_calls() {
  static const std::set<Sys> kCalls = {
      Sys::kOpen,          Sys::kClose,          Sys::kRead,
      Sys::kWrite,         Sys::kLseek,          Sys::kStat,
      Sys::kFstat,         Sys::kReaddir,        Sys::kUnlink,
      Sys::kMkdir,         Sys::kRmdir,          Sys::kRename,
      Sys::kTruncate,      Sys::kGetpid,         Sys::kSync,
      Sys::kLink,          Sys::kChmod,          Sys::kDup,
      Sys::kFsync,         Sys::kFdatasync,      Sys::kReaddirPlus,
      Sys::kOpenReadClose, Sys::kOpenWriteClose, Sys::kOpenFstat,
      Sys::kAcceptRecv,    Sys::kSendfile,       Sys::kSocket,
      Sys::kBind,          Sys::kListen,         Sys::kAccept,
      Sys::kConnect,       Sys::kSend,           Sys::kRecv,
      Sys::kShutdown,      Sys::kEpollCreate,    Sys::kEpollCtl,
      Sys::kEpollWait,
  };
  return kCalls;
}

/// The nestable entries as the table itself lists them.
std::set<Sys> table_nestable() {
  std::set<Sys> out;
  for (std::size_t nr = 0; nr < static_cast<std::size_t>(Sys::kMaxSys);
       ++nr) {
    if (uk::sys_sig(static_cast<Sys>(nr)).nestable) {
      out.insert(static_cast<Sys>(nr));
    }
  }
  return out;
}

std::vector<Sys> every_call() {
  return std::vector<Sys>(all_calls().begin(), all_calls().end());
}

/// The net family, plus the calls that create and drop its descriptors.
std::vector<Sys> net_calls() {
  return {Sys::kSocket,   Sys::kBind,        Sys::kListen,
          Sys::kAccept,   Sys::kConnect,     Sys::kSend,
          Sys::kRecv,     Sys::kShutdown,    Sys::kEpollCreate,
          Sys::kEpollCtl, Sys::kEpollWait,   Sys::kAcceptRecv,
          Sys::kSendfile, Sys::kClose,       Sys::kDup};
}

/// One argument register of a generated op; which field counts depends
/// on the register's ArgType.
struct Reg {
  std::int64_t imm = 0;  ///< kImm; kFd with neither source below: kBadFd
  int fd_op = -1;        ///< kFd: the op whose result names the fd
  int setup = -1;        ///< kFd: an index into Machine::setup
  std::string path;      ///< kPath
  std::size_t off = 0;   ///< buffers: offset in the data window
};
struct POp {
  Sys nr{};
  std::array<Reg, uk::kSysArgs> regs;
};
using Program = std::vector<POp>;

std::vector<std::byte> window_pattern() {
  std::vector<std::byte> w(kWindow);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<std::byte>(i * 7 + 3);
  }
  // A zeroed head, so readdirplus cookies can start at 0.
  std::fill(w.begin(), w.begin() + 64, std::byte{0});
  return w;
}

/// A fresh machine: kernel, root MemFs, a ring device with one ring set
/// up, and the setup descriptors -- a nonblocking listener with three
/// nonblocking clients connected to it (queued, not yet accepted; the
/// first and the last have sent a request), a plain file and a directory
/// open read-only, a bound socket and an epoll instance. Every vehicle's
/// run builds the same machine, so fd numbers line up.
struct Machine {
  Machine() {
    for (const char* d : {"/d", "/d/sub"}) {
      EXPECT_EQ(k.sys_mkdir(p, d, 0755), 0);
    }
    const std::vector<std::byte> seed = window_pattern();
    for (auto [path, n] : {std::pair{"/a", 300}, std::pair{"/d/x", 100}}) {
      const SysRet fd = k.sys_open(p, path, fs::kOWrOnly | fs::kOCreat, 0644);
      EXPECT_GE(fd, 0);
      EXPECT_EQ(k.sys_write(p, static_cast<int>(fd), seed.data() + 64, n),
                n);
      EXPECT_EQ(k.sys_close(p, static_cast<int>(fd)), 0);
    }
    ringfd = static_cast<int>(rdev.sys_ring_setup(p, 8, kPathSlot + kWindow));
    EXPECT_GE(ringfd, 0);
    ring = rdev.user_map(p, ringfd).value();

    const int lsn = static_cast<int>(net.sys_socket(p, net::kSockNonblock));
    EXPECT_EQ(net.sys_bind(p, lsn, kPort), 0);
    EXPECT_EQ(net.sys_listen(p, lsn, 8), 0);
    setup.push_back(lsn);
    for (int i = 0; i < 3; ++i) {
      const int c = static_cast<int>(net.sys_socket(p, net::kSockNonblock));
      EXPECT_EQ(net.sys_connect(p, c, kPort), 0);
      setup.push_back(c);
    }
    setup.push_back(static_cast<int>(k.sys_open(p, "/a", fs::kORdOnly, 0)));
    setup.push_back(static_cast<int>(k.sys_open(p, "/d", fs::kORdOnly, 0)));
    const int bound = static_cast<int>(net.sys_socket(p, net::kSockNonblock));
    EXPECT_EQ(net.sys_bind(p, bound, kPort + 1), 0);
    setup.push_back(bound);
    setup.push_back(static_cast<int>(net.sys_epoll_create(p)));
    EXPECT_EQ(net.sys_epoll_ctl(p, setup.back(), net::kEpollCtlAdd, lsn,
                                net::kEpollIn),
              0);
    for (int fd : setup) EXPECT_GE(fd, 0);
    EXPECT_EQ(net.sys_send(p, setup[1], seed.data() + 64, 200), 200);
    EXPECT_EQ(net.sys_send(p, setup[3], seed.data() + 71, 300), 300);
  }

  static uk::KernelConfig config() {
    uk::KernelConfig cfg;
    cfg.phys_frames = 256;
    cfg.dcache_capacity = 256;
    return cfg;
  }

  /// The descriptors the setup left open.
  [[nodiscard]] std::set<int> setup_fds() const {
    return std::set<int>(setup.begin(), setup.end());
  }

  fs::MemFs fs;
  Kernel k{fs, config()};
  net::Net net{k};
  ring::RingDev rdev{k};
  uk::Process& p = k.spawn("diff");
  int ringfd = -1;
  std::shared_ptr<ring::Ring> ring;
  /// The listener, the three clients, the read-only file, the directory
  /// /d, a socket bound to kPort + 1 (not listening), and an epoll
  /// instance watching the listener.
  std::vector<int> setup;
};
constexpr std::size_t kSetupFds = 8;

/// The descriptor a register names, resolved against one run's results.
int fd_of(const Reg& r, const std::vector<SysRet>& res, const Machine& m) {
  if (r.setup >= 0) return m.setup[static_cast<std::size_t>(r.setup)];
  if (r.fd_op < 0) return static_cast<int>(r.imm);
  const SysRet v = res[static_cast<std::size_t>(r.fd_op)];
  return v < 0 ? kBadFd : static_cast<int>(v);
}

/// Bytes the buffer in register `i` spans: its length registers are
/// immediates, the same in every vehicle.
std::size_t buf_bytes(const POp& op, std::size_t i) {
  uk::SysArgs a;
  for (std::size_t j = 0; j < uk::kSysArgs; ++j) {
    a.at(j) = static_cast<std::uint64_t>(op.regs[j].imm);
  }
  return uk::sys_sig(op.nr).buf_bytes(i, a);
}
bool in_window(const POp& op, std::size_t i) {
  const std::size_t off = op.regs[i].off;
  return off <= kWindow && buf_bytes(op, i) <= kWindow - off;
}

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
  std::string sockets;                 ///< Net::format_sockets()
  std::map<int, std::string> pending;  ///< fd -> bytes still queued
};

/// The tree, the descriptors, the socket table, and every open socket's
/// unread bytes (drained straight from its receive queue, so a SHUT_RD
/// socket counts too).
void capture(Machine& m, Outcome& out) {
  walk(m.k.vfs(), "", out.tree);
  for (int fd = 0; fd < 1024; ++fd) {
    if (fd != m.ringfd && m.p.fds.get(fd) != nullptr) out.fds.insert(fd);
  }
  out.sockets = m.net.format_sockets();
  for (int fd : out.fds) {
    const fs::OpenFile* f = m.p.fds.get(fd);
    std::shared_ptr<net::Socket> s = m.net.find_socket(f->ino);
    if (s == nullptr) continue;
    std::lock_guard lk(s->mu_);
    std::string bytes(s->rx_.size(), '\0');
    s->rx_.pop(std::as_writable_bytes(std::span(bytes)));
    out.pending[fd] = bytes;
  }
}

/// The names of the calls in `want` but not in `got`.
std::string missing(const std::set<Sys>& want, const std::set<Sys>& got) {
  std::string out;
  for (Sys nr : want) {
    if (got.count(nr) == 0) out += std::string(uk::sys_name(nr)) + " ";
  }
  return out;
}

/// The calls a vehicle ran, and those that succeeded.
struct Coverage {
  std::set<Sys> ran;
  std::set<Sys> ok;
  void add(const Program& prog, const std::vector<SysRet>& res) {
    for (std::size_t i = 0; i < prog.size(); ++i) {
      ran.insert(prog[i].nr);
      if (res[i] >= 0) ok.insert(prog[i].nr);
    }
  }
};

/// An abort injected into a run: kfail `site` armed at check `nth`; a kdl
/// expiry when the site is the dl clock (under a DeadlineScope).
struct Kill {
  fault::Site site;
  std::uint64_t nth;
  Errno err;  ///< what the aborted op reports
};

/// Arms `kill` (if any) on `k` for the lifetime of the guard.
class Armed {
 public:
  Armed(uk::Kernel& k, const Kill* kill) : kdl_(k.dl()), kill_(kill) {
    if (kill_ == nullptr) return;
    if (kill_->site == fault::Site::kDlClockSkew) {
      kdl_.set_enabled(true);
      scope_.emplace(kdl_, std::chrono::seconds(10));
    }
    fault::SiteConfig cfg;
    cfg.nth = kill_->nth;
    cfg.budget = 1;
    fault::kfail().arm(kill_->site, cfg);
  }
  ~Armed() {
    if (kill_ == nullptr) return;
    fault::kfail().disarm_all();
    scope_.reset();
    kdl_.set_enabled(false);
  }
  Armed(const Armed&) = delete;
  Armed& operator=(const Armed&) = delete;

 private:
  dl::Kdl& kdl_;
  const Kill* kill_;
  std::optional<dl::DeadlineScope> scope_;
};

// --- the three vehicles ------------------------------------------------------

Outcome run_classic(const Program& prog) {
  Machine m;
  Outcome out;
  out.window = window_pattern();
  for (const POp& op : prog) {
    const uk::SysSig& sig = uk::sys_sig(op.nr);
    Kernel::SysArgs a;
    for (std::size_t i = 0; i < sig.nargs; ++i) {
      const Reg& r = op.regs[i];
      switch (sig.args[i].type) {
        case ArgType::kFd:
          a.at(i) = Kernel::iarg(fd_of(r, out.res, m));
          break;
        case ArgType::kPath:
          a.at(i) = Kernel::uarg(r.path.c_str());
          break;
        case ArgType::kIn:
        case ArgType::kOut:
        case ArgType::kInOut:
          a.at(i) =
              in_window(op, i) ? Kernel::uarg(out.window.data() + r.off) : 0;
          break;
        case ArgType::kImm:
        case ArgType::kNone:
          a.at(i) = Kernel::iarg(r.imm);
          break;
      }
    }
    out.res.push_back(m.k.syscall(m.p, op.nr, a));
  }
  capture(m, out);
  return out;
}

/// One compound for the whole program. Descriptor arguments come from
/// the classic run's results: result_of(op) where the classic call
/// succeeded, kBadFd where it failed.
Outcome run_cosy(const Program& prog, const std::vector<SysRet>& classic,
                 const Kill* kill = nullptr, SysRet* compound_ret = nullptr) {
  Machine m;
  cosy::CosyExtension ext(m.k);
  cosy::SharedBuffer shared(kWindow);
  const std::vector<std::byte> init = window_pattern();
  std::memcpy(shared.data(), init.data(), kWindow);

  cosy::CompoundBuilder b;
  std::map<std::string, cosy::Arg> strs;  // the pool holds each path once
  for (const POp& op : prog) {
    const uk::SysSig& sig = uk::sys_sig(op.nr);
    std::vector<cosy::Arg> args;
    for (std::size_t i = 0; i < sig.nargs; ++i) {
      const Reg& r = op.regs[i];
      switch (sig.args[i].type) {
        case ArgType::kFd: {
          const bool from_op =
              r.setup < 0 && r.fd_op >= 0 &&
              classic[static_cast<std::size_t>(r.fd_op)] >= 0;
          args.push_back(from_op ? cosy::result_of(r.fd_op)
                                 : cosy::imm(fd_of(r, classic, m)));
          break;
        }
        case ArgType::kPath: {
          auto it = strs.find(r.path);
          if (it == strs.end()) it = strs.emplace(r.path, b.str(r.path)).first;
          args.push_back(it->second);
          break;
        }
        case ArgType::kIn:
        case ArgType::kOut:
        case ArgType::kInOut: {
          // Past the window's end the offset goes in as a computed value,
          // so both the static and the run-time bounds checks run.
          const auto off = static_cast<std::int64_t>(r.off);
          args.push_back(r.off <= kWindow ? cosy::shared(off)
                                          : cosy::imm(off));
          break;
        }
        case ArgType::kImm:
        case ArgType::kNone:
          args.push_back(cosy::imm(r.imm));
          break;
      }
    }
    b.sys(op.nr, args);
  }
  const cosy::Compound c = b.finish();
  cosy::CosyResult r;
  {
    Armed armed(m.k, kill);
    r = ext.execute(m.p, c, shared);
  }
  if (compound_ret != nullptr) *compound_ret = r.ret;
  Outcome out;
  out.res = r.results;
  out.res.resize(prog.size());  // drop the closing kEnd
  out.window.assign(shared.data(), shared.data() + kWindow);
  capture(m, out);
  return out;
}

/// The SQE for `op`, its descriptors resolved against `res`; its paths go
/// into the path slot from *path_at on.
ring::Sqe make_sqe(Machine& m, const POp& op, const std::vector<SysRet>& res,
                   std::uint64_t ud, std::size_t* path_at) {
  ring::Sqe s{};
  s.user_data = ud;
  s.nr = op.nr;
  const uk::SysSig& sig = uk::sys_sig(op.nr);
  for (std::size_t i = 0; i < sig.nargs; ++i) {
    const Reg& r = op.regs[i];
    switch (sig.args[i].type) {
      case ArgType::kFd:
        s.args.at(i) = Kernel::iarg(fd_of(r, res, m));
        break;
      case ArgType::kPath:
        std::memcpy(m.ring->user_data(*path_at, r.path.size() + 1),
                    r.path.c_str(), r.path.size() + 1);
        s.args.at(i) = *path_at;
        *path_at += r.path.size() + 1;
        break;
      case ArgType::kIn:
      case ArgType::kOut:
      case ArgType::kInOut:
        s.args.at(i) = kPathSlot + r.off;
        break;
      case ArgType::kImm:
      case ArgType::kNone:
        s.args.at(i) = Kernel::iarg(r.imm);
        break;
    }
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
    std::size_t path_at = 0;
    EXPECT_TRUE(
        m.ring->user_prepare(make_sqe(m, prog[i], out.res, i, &path_at)));
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

/// The program as one linked chain, its descriptors taken from `res`,
/// drained under `kill`.
Outcome run_ring_chain(const Program& prog, const std::vector<SysRet>& res,
                       const Kill& kill) {
  Machine m;
  ring_init_window(m);
  std::size_t path_at = 0;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    ring::Sqe s = make_sqe(m, prog[i], res, i, &path_at);
    if (i + 1 < prog.size()) s.flags = ring::kSqeLink;
    EXPECT_TRUE(m.ring->user_prepare(s));
  }
  {
    Armed armed(m.k, &kill);
    m.rdev.sys_ring_enter(m.p, m.ringfd, ring::RingDev::kDrainAll, 0, 0);
  }
  Outcome out;
  ring::Cqe cqes[ring::kMaxChain];
  const std::size_t n = m.ring->user_reap(cqes, ring::kMaxChain);
  for (std::size_t i = 0; i < n; ++i) out.res.push_back(cqes[i].res);
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

/// A bounded immediate: half the time a small value (a selector -- open
/// access mode, whence, shutdown how, epoll op -- or a short length or a
/// free port), otherwise a length, a mode, open flags or the listener's
/// port.
std::int64_t pick_imm(base::Rng& rng) {
  static const std::int64_t kImms[] = {
      64, 300, 0644,
      fs::kORdWr | fs::kOCreat,
      fs::kOWrOnly | fs::kOCreat | fs::kOTrunc,
      fs::kORdWr | fs::kOAppend,
      kPort,
  };
  if (rng.chance(1, 2)) return static_cast<std::int64_t>(rng.below(4));
  return kImms[rng.below(std::size(kImms))];
}

Program gen_program(std::uint64_t seed, const std::vector<Sys>& calls,
                    std::size_t n) {
  // The calls that produce a descriptor come up more often, so most
  // programs have live descriptors to work on.
  std::vector<Sys> producers;
  for (Sys nr : calls) {
    if (uk::sys_sig(nr).ret == uk::RetType::kFdNew) producers.push_back(nr);
  }
  base::Rng rng(seed);
  Program prog;
  std::vector<int> fd_ops;  // ops whose result is a descriptor
  for (std::size_t k = 0; k < n; ++k) {
    POp op;
    op.nr = rng.chance(1, 4) ? producers[rng.below(producers.size())]
                             : calls[rng.below(calls.size())];
    const uk::SysSig& sig = uk::sys_sig(op.nr);
    for (std::size_t i = 0; i < sig.nargs; ++i) {
      Reg& r = op.regs[i];
      switch (sig.args[i].type) {
        case ArgType::kFd:
          if (!fd_ops.empty() && rng.chance(1, 2)) {
            r.fd_op = fd_ops[rng.below(fd_ops.size())];
          } else if (rng.chance(5, 6)) {
            r.setup = static_cast<int>(rng.below(kSetupFds));
          } else {
            r.imm = kBadFd;
          }
          break;
        case ArgType::kPath:
          r.path = pick_path(rng);
          break;
        case ArgType::kImm:
          r.imm = pick_imm(rng);
          break;
        default:
          break;
      }
    }
    // Nothing parks: sockets are nonblocking, epoll_wait never waits.
    if (op.nr == Sys::kSocket) op.regs[0].imm = net::kSockNonblock;
    if (op.nr == Sys::kEpollWait) op.regs[3].imm = 0;
    // Buffers last: their windows depend on the length registers.
    for (std::size_t i = 0; i < sig.nargs; ++i) {
      if (!uk::SysSig::is_buffer(sig.args[i].type)) continue;
      const std::size_t bytes = std::min(buf_bytes(op, i), kWindow);
      Reg& r = op.regs[i];
      if (rng.chance(1, 5)) {
        // Out of range: the window runs past the data window's end.
        r.off = kWindow - 32 + rng.below(64);
      } else if (sig.args[i].type == ArgType::kInOut && rng.chance(1, 2)) {
        r.off = rng.below(8) * 8;  // a zeroed readdirplus cookie
      } else {
        r.off = rng.below(kWindow - bytes + 1);
      }
    }
    if (sig.ret == uk::RetType::kFdNew) fd_ops.push_back(static_cast<int>(k));
    prog.push_back(op);
  }
  return prog;
}

/// A program whose every call succeeds, at most one ring chain long:
/// creating opens, sockets, epoll instances, accepts (and accept_recvs)
/// of the queued connections and dups, then I/O, fstat, fsync, lseek and
/// close on the live descriptors.
Program gen_clean_program(std::uint64_t seed) {
  static const char* kPaths[] = {"/a", "/b", "/d/x", "/d/n"};
  static const Sys kFileOps[] = {Sys::kRead,  Sys::kWrite, Sys::kFstat,
                                 Sys::kFsync, Sys::kLseek, Sys::kFdatasync};
  base::Rng rng(seed);
  Program prog;
  struct Live {
    int op;
    bool file;
  };
  std::vector<Live> live;
  int accepts = 3;  // connections queued on the setup listener
  for (std::size_t i = 0; i < ring::kMaxChain; ++i) {
    POp op;
    const int self = static_cast<int>(i);
    if (live.empty() || rng.chance(1, 3)) {
      const std::uint64_t pick = rng.below(5);
      if (pick == 0) {
        op.nr = Sys::kSocket;
        op.regs[0].imm = net::kSockNonblock;
      } else if (pick == 1) {
        op.nr = Sys::kEpollCreate;
      } else if (pick == 2 && accepts > 0) {
        // The first and the last queued client have sent a request, so
        // accept_recv of their connection succeeds. Its fd comes back
        // through the slot, where no later op looks for it: only the
        // abort oracle's rollback has to find it.
        const bool has_request = accepts != 2;
        --accepts;
        op.regs[0].setup = 0;
        op.nr = Sys::kAccept;
        if (has_request && rng.chance(1, 2)) {
          op.nr = Sys::kAcceptRecv;
          op.regs[1].off = rng.below(kWindow - 64);
          op.regs[2].imm = 64;
          op.regs[3].off = rng.below(kWindow - sizeof(int));
        }
      } else {
        op.nr = Sys::kOpen;
        op.regs[0].path = kPaths[rng.below(std::size(kPaths))];
        op.regs[1].imm = fs::kORdWr | fs::kOCreat;
        op.regs[2].imm = 0644;
      }
      if (op.nr != Sys::kAcceptRecv) {
        live.push_back({self, op.nr == Sys::kOpen});
      }
    } else {
      const std::size_t j = rng.below(live.size());
      const Live l = live[j];
      op.regs[0].fd_op = l.op;
      const std::uint64_t pick = rng.below(l.file ? 8 : 2);
      if (pick == 0) {
        op.nr = Sys::kClose;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
      } else if (pick == 1) {
        op.nr = Sys::kDup;
        live.push_back({self, l.file});
      } else {
        op.nr = kFileOps[pick - 2];
        op.regs[1].off = rng.below(kWindow - 256);
        op.regs[2].imm = static_cast<std::int64_t>(1 + rng.below(256));
        if (op.nr == Sys::kLseek) {
          op.regs[1].imm = static_cast<std::int64_t>(rng.below(300));
          op.regs[2].imm = fs::kSeekSet;
        }
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

/// Which descriptor a consolidation op names: a setup fd (in the order of
/// Machine::setup), a bad one, or an earlier accept_recv's connection.
enum class NRef { kLsn, kCli0, kCli1, kCli2, kFile, kBad, kAccepted };

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
  Outcome out;
  std::vector<int> connfds;
};

int cons_fd(const COp& op, const Machine& m, const std::vector<int>& conns) {
  if (op.ref == NRef::kBad) return kBadFd;
  if (op.ref != NRef::kAccepted) {
    return m.setup[static_cast<std::size_t>(op.ref)];
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

ConsOutcome run_cons(const ConsProgram& prog, bool consolidated) {
  Machine m;
  ConsOutcome co;
  std::vector<std::byte> window(kBigWindow);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::byte>(i * 13 + 5);
  }
  std::vector<SysRet>& res = co.out.res;
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
        const int lfd = cons_fd(op, m, co.connfds);
        // A null request nulls either the buffer or the fd slot.
        const bool null_slot = op.null_buf && op.len % 2 == 0;
        int* uconn = null_slot ? nullptr : &connfd;
        void* ubuf = null_slot ? window.data() + op.off : buf;
        if (consolidated) {
          r = consolidation::sys_accept_recv(m.k, m.p, lfd, ubuf, op.len,
                                             uconn);
        } else if (ubuf == nullptr || uconn == nullptr) {
          r = sysret_err(Errno::kEFAULT);  // intended difference
        } else {
          r = sup::classic_accept_recv(m.net, m.p, lfd, ubuf, op.len, uconn);
        }
        break;
      }
      case CKind::kSendfile: {
        const int sfd = cons_fd(op, m, co.connfds);
        Result<std::shared_ptr<net::Socket>> sock = m.net.socket_of(m.p, sfd);
        if (consolidated) {
          r = consolidation::sys_sendfile(m.k, m.p, sfd, op.path.c_str(),
                                          op.foff, op.len);
        } else if (!sock) {
          r = sysret_err(sock.error());  // intended difference
        } else {
          r = sup::classic_sendfile(m.net, m.k, m.p, sfd, op.path.c_str(),
                                    op.foff, op.len);
        }
        break;
      }
      case CKind::kShutdown:
        r = m.net.sys_shutdown(m.p, cons_fd(op, m, co.connfds), op.how);
        break;
    }
    res.push_back(r);
    co.connfds.push_back(connfd);
  }
  co.out.window = std::move(window);
  capture(m, co.out);
  return co;
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

// --- the oracles -------------------------------------------------------------

TEST(VehicleDifferential, ClassicAndCosyAgreeOnEveryOp) {
  fault::kfail().disarm_all();
  ASSERT_EQ(all_calls(), table_nestable());
  std::map<SysRet, int> seen;  // errno -> count; 1 = any success
  Coverage classic_cov;
  Coverage cosy_cov;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const Program prog = gen_program(seed, every_call(), 24);
    const Outcome classic = run_classic(prog);
    for (SysRet r : classic.res) ++seen[r < 0 ? r : 1];
    const Outcome cosy = run_cosy(prog, classic.res);
    expect_same(classic, cosy, "cosy", seed);
    classic_cov.add(prog, classic.res);
    cosy_cov.add(prog, cosy.res);
    if (HasFailure()) return;
  }
  EXPECT_EQ(missing(all_calls(), classic_cov.ran), "");
  EXPECT_EQ(missing(all_calls(), cosy_cov.ran), "");
  EXPECT_EQ(missing(all_calls(), classic_cov.ok), "") << "never succeeded";
  // The generator reaches every outcome the vehicles could disagree on.
  for (Errno e : {Errno::kEBADF, Errno::kEFAULT, Errno::kENOENT,
                  Errno::kENAMETOOLONG, Errno::kEEXIST, Errno::kEISDIR,
                  Errno::kENOTDIR, Errno::kEINVAL, Errno::kENOTSOCK,
                  Errno::kEAGAIN}) {
    EXPECT_GT(seen[sysret_err(e)], 0) << errno_name(e);
  }
  EXPECT_GT(seen[1], 1000);
}

TEST(VehicleDifferential, RingSubsetAgreesWithClassicAndCosy) {
  // Every nestable table entry, in all three vehicles.
  fault::kfail().disarm_all();
  Coverage ring_cov;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const Program prog = gen_program(seed ^ 0xa5a5, every_call(), 32);
    const Outcome classic = run_classic(prog);
    expect_same(classic, run_cosy(prog, classic.res), "cosy", seed);
    const Outcome ring = run_ring(prog);
    expect_same(classic, ring, "ring", seed);
    ring_cov.add(prog, ring.res);
    if (HasFailure()) return;
  }
  EXPECT_EQ(missing(all_calls(), ring_cov.ran), "");
  EXPECT_EQ(missing(all_calls(), ring_cov.ok), "") << "never succeeded";
}

TEST(VehicleDifferential, AbortBeforeOpKLeavesPrefixState) {
  fault::kfail().disarm_all();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const Program prog = gen_clean_program(seed);
    const Outcome full = run_classic(prog);
    for (SysRet r : full.res) ASSERT_GE(r, 0) << "seed " << seed;
    const std::set<int> setup = Machine().setup_fds();
    for (std::size_t k = 0; k < prog.size(); ++k) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " k " + std::to_string(k));
      const Program prefix(prog.begin(),
                           prog.begin() + static_cast<std::ptrdiff_t>(k));
      const Tree want = run_classic(prefix).tree;

      // The compound: kfail before op k; a kdl deadline expiry before op k
      // (dl check #1 is the compound's own gateway, #k+2 precedes op k).
      for (const Kill& kill :
           {Kill{fault::Site::kCosyOp, k + 1, Errno::kEINTR},
            Kill{fault::Site::kDlClockSkew, k + 2, Errno::kETIMEDOUT}}) {
        SysRet ret = 0;
        const Outcome cosy = run_cosy(prog, full.res, &kill, &ret);
        EXPECT_EQ(ret, sysret_err(kill.err));
        EXPECT_TRUE(cosy.tree == want) << "cosy tree";
        EXPECT_EQ(cosy.fds, setup) << "cosy leaked an fd";
      }
      // The same program as one linked chain, corrupt at SQE k, then
      // expired at SQE k.
      for (const Kill& kill :
           {Kill{fault::Site::kRingSqeCorrupt, k + 1, Errno::kEFAULT},
            Kill{fault::Site::kDlClockSkew, k + 2, Errno::kETIMEDOUT}}) {
        const Outcome ring = run_ring_chain(prog, full.res, kill);
        ASSERT_EQ(ring.res.size(), prog.size());
        EXPECT_EQ(ring.res[k], sysret_err(kill.err));
        EXPECT_TRUE(ring.tree == want) << "ring tree";
        EXPECT_EQ(ring.fds, setup) << "ring leaked an fd";
      }
      if (HasFailure()) return;
    }
  }
}

TEST(VehicleDifferential, NetOpsAgreeClassicAndRing) {
  fault::kfail().disarm_all();
  std::map<SysRet, int> seen;  // errno -> count; 1 = any success, 0 = EOF
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Program prog = gen_program(seed, net_calls(), 32);
    const Outcome classic = run_classic(prog);
    for (SysRet r : classic.res) ++seen[r <= 0 ? r : 1];
    expect_same(classic, run_ring(prog), "ring", seed);
    expect_same(classic, run_cosy(prog, classic.res), "cosy", seed);
    if (HasFailure()) return;
  }
  for (Errno e : {Errno::kEBADF, Errno::kENOTSOCK, Errno::kEFAULT,
                  Errno::kEAGAIN, Errno::kEINVAL, Errno::kENOTCONN,
                  Errno::kEPIPE, Errno::kECONNRESET, Errno::kECONNREFUSED}) {
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
      for (SysRet r : classic.out.res) ++seen[r < 0 ? r : 1];
      const ConsOutcome cons = run_cons(prog, true);
      expect_same(classic.out, cons.out, "consolidated", seed);
      EXPECT_EQ(classic.connfds, cons.connfds) << "consolidated seed " << seed;
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
    const int lsn = m.setup[0];
    EXPECT_EQ(consolidation::sys_accept_recv(m.k, m.p, lsn, nullptr,
                                             8, &connfd),
              sysret_err(Errno::kEFAULT));
    EXPECT_EQ(consolidation::sys_accept_recv(m.k, m.p, lsn, buf, 8,
                                             nullptr),
              sysret_err(Errno::kEFAULT));
    EXPECT_EQ(connfd, -1);
    const std::string queued = m.net.format_listeners();
    EXPECT_EQ(sup::classic_accept_recv(m.net, m.p, lsn, nullptr, 8,
                                       &connfd),
              sysret_err(Errno::kEFAULT));
    EXPECT_GE(connfd, 0);
    EXPECT_NE(m.net.format_listeners(), queued);
  }
  {
    // sendfile checks the socket before it opens the file, and even when
    // there is nothing to send; the classic expansion opens first.
    Machine m;
    EXPECT_EQ(consolidation::sys_sendfile(m.k, m.p, kBadFd,
                                          "/missing", 0, 16),
              sysret_err(Errno::kEBADF));
    EXPECT_EQ(sup::classic_sendfile(m.net, m.k, m.p, kBadFd, "/missing", 0,
                                    16),
              sysret_err(Errno::kENOENT));
    EXPECT_EQ(consolidation::sys_sendfile(m.k, m.p, kBadFd, "/a", 0,
                                          0),
              sysret_err(Errno::kEBADF));
    EXPECT_EQ(sup::classic_sendfile(m.net, m.k, m.p, kBadFd, "/a", 0, 0), 0);
  }
}

}  // namespace
}  // namespace usk
