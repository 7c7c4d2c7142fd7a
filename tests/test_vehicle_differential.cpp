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
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "fault/kfail.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
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
  ring::RingDev rdev{k, net};
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

}  // namespace
}  // namespace usk
