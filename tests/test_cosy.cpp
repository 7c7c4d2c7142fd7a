// Tests for the Cosy framework: compound encoding/validation, the kernel
// extension executor (zero-copy I/O, control flow, dependency resolution),
// the CosyVM user functions under both safety modes, and the watchdog.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "cosy/compound.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "cosy/vm.hpp"
#include "uk/userlib.hpp"

namespace usk::cosy {
namespace {

class CosyTest : public ::testing::Test {
 protected:
  CosyTest()
      : kernel_(fs_), proc_(kernel_, "cosy-proc"), ext_(kernel_),
        shared_(1 << 16) {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  void make_file(const char* path, std::string_view content) {
    int fd = proc_.open(path, fs::kOWrOnly | fs::kOCreat);
    ASSERT_GE(fd, 0);
    proc_.write(fd, content.data(), content.size());
    proc_.close(fd);
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
  CosyExtension ext_;
  SharedBuffer shared_;
};

// --- validation ----------------------------------------------------------------------

TEST_F(CosyTest, ValidCompoundPasses) {
  CompoundBuilder b;
  b.getpid(0);
  Compound c = b.finish();
  auto v = validate(c, shared_.size());
  EXPECT_TRUE(v.ok) << v.reason;
}

TEST_F(CosyTest, MissingEndRejected) {
  Compound c;
  OpRecord r;
  r.op = Op::kSys;
  r.aux = static_cast<std::int32_t>(uk::Sys::kGetpid);
  c.ops.push_back(r);
  auto v = validate(c, 0);
  EXPECT_FALSE(v.ok);
}

TEST_F(CosyTest, BadJumpTargetRejected) {
  CompoundBuilder b;
  b.jmp(999);
  Compound c = b.finish();
  auto v = validate(c, 0);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("jump"), std::string::npos);
}

TEST_F(CosyTest, ForwardResultReferenceRejected) {
  CompoundBuilder b;
  b.close(result_of(5));  // references an op that doesn't precede it
  Compound c = b.finish();
  EXPECT_FALSE(validate(c, 0).ok);
}

TEST_F(CosyTest, SharedRangeRejected) {
  CompoundBuilder b;
  b.read(imm(0), shared(1 << 20), imm(10));
  Compound c = b.finish();
  EXPECT_FALSE(validate(c, shared_.size()).ok);
}

TEST_F(CosyTest, StringPoolRangeRejected) {
  CompoundBuilder b;
  b.unlink(Arg{ArgKind::kStr, 100, 50});  // pool is empty
  Compound c = b.finish();
  EXPECT_FALSE(validate(c, 0).ok);
}

TEST_F(CosyTest, BadLocalIndexRejected) {
  CompoundBuilder b;
  b.set_local(200, imm(1));
  Compound c = b.finish();
  EXPECT_FALSE(validate(c, 0).ok);
}

TEST_F(CosyTest, FuzzedCompoundsNeverCrashTheKernel) {
  base::Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Compound c;
    std::size_t n = rng.range(1, 12);
    for (std::size_t i = 0; i < n; ++i) {
      OpRecord r;
      r.op = static_cast<Op>(rng.below(32));
      r.nargs = static_cast<std::uint8_t>(rng.below(5));
      r.aux = static_cast<std::int32_t>(rng.next());
      r.aux2 = static_cast<std::int32_t>(rng.next());
      for (auto& a : r.args) {
        a.kind = static_cast<ArgKind>(rng.below(8));
        a.a = static_cast<std::int64_t>(rng.next());
        a.b = static_cast<std::int64_t>(rng.next());
      }
      c.ops.push_back(r);
    }
    // Executing arbitrary garbage must either be rejected or complete
    // without crashing; never UB.
    CosyResult res = ext_.execute(proc_.process(), c, shared_);
    (void)res;
  }
  SUCCEED();
}

TEST_F(CosyTest, WireFormatRoundTrip) {
  make_file("/wire", "wire-format-data");
  CompoundBuilder b;
  int fd_op = b.open(b.str("/wire"), imm(fs::kORdOnly), imm(0));
  b.read(result_of(fd_op), shared(0), imm(64), 1);
  b.close(result_of(fd_op));
  Compound original = b.finish();

  // User space serializes into the shared region; the kernel parses it
  // back out and executes the same program.
  std::vector<std::uint8_t> image = serialize(original);
  Compound parsed;
  ASSERT_TRUE(deserialize(image, &parsed));
  ASSERT_EQ(parsed.ops.size(), original.ops.size());
  ASSERT_EQ(parsed.strpool, original.strpool);

  CosyResult r = ext_.execute(proc_.process(), parsed, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[1], 16);
  EXPECT_EQ(std::memcmp(shared_.data(), "wire-format-data", 16), 0);
}

TEST_F(CosyTest, ExecuteImageEndToEnd) {
  CompoundBuilder b;
  b.getpid(0);
  std::vector<std::uint8_t> image = serialize(b.finish());
  CosyResult r = ext_.execute_image(proc_.process(), image, shared_);
  EXPECT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[0], static_cast<std::int64_t>(proc_.task().pid()));

  std::vector<std::uint8_t> garbage(40, 0xAB);
  CosyResult bad = ext_.execute_image(proc_.process(), garbage, shared_);
  EXPECT_EQ(sysret_errno(bad.ret), Errno::kEINVAL);
}

TEST_F(CosyTest, WireFormatRejectsGarbage) {
  Compound out;
  EXPECT_FALSE(deserialize({}, &out));
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(deserialize(junk, &out));

  // Truncated and inflated images of a real compound are both rejected.
  CompoundBuilder b;
  b.getpid(0);
  std::vector<std::uint8_t> image = serialize(b.finish());
  std::vector<std::uint8_t> truncated(image.begin(), image.end() - 3);
  EXPECT_FALSE(deserialize(truncated, &out));
  std::vector<std::uint8_t> inflated = image;
  inflated.push_back(0);
  EXPECT_FALSE(deserialize(inflated, &out));

  // Absurd op counts are rejected before any allocation.
  std::vector<std::uint8_t> bomb(16, 0);
  std::uint32_t magic = 0x59534F43, version = 1, ops = 0x7FFFFFFF, pool = 0;
  std::memcpy(bomb.data(), &magic, 4);
  std::memcpy(bomb.data() + 4, &version, 4);
  std::memcpy(bomb.data() + 8, &ops, 4);
  std::memcpy(bomb.data() + 12, &pool, 4);
  EXPECT_FALSE(deserialize(bomb, &out));

  // Fuzz: random images never crash, and anything that parses also
  // survives validation + execution.
  base::Rng rng(808);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> blob(rng.below(600));
    for (auto& byte : blob) byte = static_cast<std::uint8_t>(rng.next());
    Compound c;
    if (deserialize(blob, &c)) {
      (void)ext_.execute(proc_.process(), c, shared_);
    }
  }
}

// --- execution ------------------------------------------------------------------------

TEST_F(CosyTest, GetpidCompound) {
  CompoundBuilder b;
  b.getpid(0);
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[0], static_cast<std::int64_t>(proc_.task().pid()));
}

TEST_F(CosyTest, WholeCompoundIsOneCrossing) {
  CompoundBuilder b;
  for (int i = 0; i < 10; ++i) b.getpid(0);
  Compound c = b.finish();
  std::uint64_t before = kernel_.boundary().stats().crossings;
  ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(kernel_.boundary().stats().crossings, before + 1);
}

TEST_F(CosyTest, OpenReadCloseWithResultDependencies) {
  make_file("/data", "hello cosy world");
  CompoundBuilder b;
  int open_op = b.open(b.str("/data"), imm(fs::kORdOnly), imm(0));
  b.read(result_of(open_op), shared(0), imm(64), /*dst_local=*/1);
  b.close(result_of(open_op));
  Compound c = b.finish();

  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[1], 16);  // bytes read
  EXPECT_EQ(std::memcmp(shared_.data(), "hello cosy world", 16), 0);
}

TEST_F(CosyTest, ZeroCopyReadsSkipUserCopies) {
  make_file("/zc", std::string(8192, 'z'));
  CompoundBuilder b;
  int fd_op = b.open(b.str("/zc"), imm(fs::kORdOnly), imm(0));
  b.read(result_of(fd_op), shared(0), imm(8192), 1);
  b.close(result_of(fd_op));
  Compound c = b.finish();

  std::uint64_t to_user_before = kernel_.boundary().stats().bytes_to_user;
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[1], 8192);
  // No copy_to_user happened: the data went straight to shared memory.
  EXPECT_EQ(kernel_.boundary().stats().bytes_to_user, to_user_before);
  EXPECT_EQ(shared_.bytes_via_shared, 8192u);
}

TEST_F(CosyTest, WriteFromSharedBuffer) {
  std::memcpy(shared_.data(), "shared-write", 12);
  CompoundBuilder b;
  int fd_op = b.open(b.str("/out"), imm(fs::kOWrOnly | fs::kOCreat),
                     imm(0644));
  b.write(result_of(fd_op), shared(0), imm(12), 1);
  b.close(result_of(fd_op));
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[1], 12);

  char buf[32] = {};
  int fd = proc_.open("/out", fs::kORdOnly);
  ASSERT_GE(proc_.read(fd, buf, sizeof(buf)), 12);
  proc_.close(fd);
  EXPECT_STREQ(buf, "shared-write");
}

TEST_F(CosyTest, StatIntoSharedBuffer) {
  make_file("/st", "123456");
  CompoundBuilder b;
  b.stat(b.str("/st"), shared(128));
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  fs::StatBuf st;
  std::memcpy(&st, shared_.data() + 128, sizeof(st));
  EXPECT_EQ(st.size, 6u);
}

TEST_F(CosyTest, ArithAndControlFlow) {
  // sum = 0; for (i = 0; i < 10; i++) sum += i;  => 45
  CompoundBuilder b;
  b.set_local(0, imm(0));           // sum
  b.set_local(1, imm(0));           // i
  int loop_start = b.here();
  b.arith(2, ArithOp::kLt, local(1), imm(10));
  int exit_jump = b.jz(local(2), 0);
  b.arith(0, ArithOp::kAdd, local(0), local(1));
  b.arith(1, ArithOp::kAdd, local(1), imm(1));
  b.jmp(loop_start);
  b.patch_target(exit_jump, b.here());
  Compound c = b.finish();

  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[0], 45);
  EXPECT_GT(ext_.stats().back_edges, 0u);
}

TEST_F(CosyTest, DivisionByZeroAborts) {
  CompoundBuilder b;
  b.arith(0, ArithOp::kDiv, imm(10), imm(0));
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEINVAL);
}

// Every mid-compound abort closes the descriptors the compound opened
// (the kernel's fd ledger): a division by zero after an open...
TEST_F(CosyTest, DivisionByZeroAbortClosesOpenedFd) {
  make_file("/leak-div", "x");
  const std::size_t fds0 = proc_.process().fds.open_count();
  CompoundBuilder b;
  b.open(b.str("/leak-div"), imm(fs::kORdOnly), imm(0));
  b.arith(0, ArithOp::kMod, imm(10), imm(0));
  CosyResult r = ext_.execute(proc_.process(), b.finish(), shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEINVAL);
  EXPECT_EQ(proc_.process().fds.open_count(), fds0);
  EXPECT_EQ(ext_.stats().fds_rolled_back, 1u);
}

TEST_F(CosyTest, WatchdogKillsInfiniteLoop) {
  proc_.task().set_kernel_budget(200'000);
  CompoundBuilder b;
  int start = b.here();
  b.set_local(0, imm(1));
  b.jmp(start);  // while (1);
  Compound c = b.finish();

  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEKILLED);
  EXPECT_EQ(proc_.task().state(), sched::TaskState::kKilled);
  EXPECT_GE(kernel_.scheduler().stats().watchdog_kills, 1u);
  EXPECT_TRUE(base::klog().contains("cosy: compound killed"));
}

TEST_F(CosyTest, SyscallErrorsAreRecordedPerOp) {
  CompoundBuilder b;
  int op = b.open(b.str("/does-not-exist"), imm(fs::kORdOnly), imm(0), 0);
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(r.ret, 0);  // the compound itself completed
  EXPECT_EQ(sysret_errno(r.results[static_cast<std::size_t>(op)]),
            Errno::kENOENT);
  EXPECT_EQ(sysret_errno(static_cast<SysRet>(r.locals[0])), Errno::kENOENT);
}

TEST_F(CosyTest, JnegBranchesOnError) {
  // open a missing file; if fd < 0, skip the read.
  CompoundBuilder b;
  b.open(b.str("/missing"), imm(fs::kORdOnly), imm(0), 0);
  int skip = b.jneg(local(0), 0);
  b.read(local(0), shared(0), imm(16), 1);
  b.patch_target(skip, b.here());
  b.set_local(2, imm(77));
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[1], 0);   // read skipped
  EXPECT_EQ(r.locals[2], 77);  // post-branch code ran
}

TEST_F(CosyTest, ReaddirOpListsDirectoryZeroCopy) {
  proc_.mkdir("/d");
  for (int i = 0; i < 12; ++i) {
    make_file(("/d/f" + std::to_string(i)).c_str(), "x");
  }
  CompoundBuilder b;
  int fd_op = b.open(b.str("/d"), imm(fs::kORdOnly), imm(0));
  b.readdir(result_of(fd_op), shared(0), imm(4096), /*dst_local=*/1);
  b.close(result_of(fd_op));
  Compound c = b.finish();

  std::uint64_t to_user0 = kernel_.boundary().stats().bytes_to_user;
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_GT(r.locals[1], 0);
  // Zero copy: the dirents landed in shared memory without copy_to_user.
  EXPECT_EQ(kernel_.boundary().stats().bytes_to_user, to_user0);

  std::vector<uk::UserDirent> entries;
  uk::decode_dirents(
      std::span(shared_.data(), static_cast<std::size_t>(r.locals[1])),
      &entries);
  ASSERT_EQ(entries.size(), 12u);
  EXPECT_EQ(entries[0].name, "f0");
}

TEST_F(CosyTest, ReaddirOpResumesAcrossCalls) {
  proc_.mkdir("/many");
  for (int i = 0; i < 40; ++i) {
    make_file(("/many/e" + std::to_string(i)).c_str(), "x");
  }
  // Loop inside the compound until the directory is exhausted, counting
  // total bytes -- a whole `ls` in one crossing.
  CompoundBuilder b;
  int fd_op = b.open(b.str("/many"), imm(fs::kORdOnly), imm(0), 0);
  b.set_local(1, imm(0));  // total bytes
  int loop = b.here();
  b.readdir(local(0), shared(0), imm(256), 2);
  b.arith(1, ArithOp::kAdd, local(1), local(2));
  b.jnz(local(2), loop);
  b.close(local(0));
  Compound c = b.finish();
  (void)fd_op;

  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  // 40 entries x (10-byte header + ~2-3 byte names).
  EXPECT_GT(r.locals[1], 40 * 10);
}

// --- CosyVM ---------------------------------------------------------------------------

class VmTest : public ::testing::Test {
 protected:
  seg::DescriptorTable gdt_;
  sched::Scheduler sched_;
  base::WorkEngine engine_;
  VmCosts costs_;
};

TEST_F(VmTest, ArithmeticFunction) {
  // f(a, b) = a * b + 7
  VmAssembler a;
  a.mov(0, 1).mul(0, 2).addi(0, 7).ret();
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "mul7");
  sched_.enter(sched_.spawn("t"));
  auto r = f.run(std::array<std::int64_t, 2>{6, 7}, sched_, engine_, costs_,
                 nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 49);
}

TEST_F(VmTest, DataSegmentLoadStore) {
  // f(x): data[8] = x; return data[8] * 2
  VmAssembler a;
  a.loadi(2, 0)        // base register
      .st(1, 2, 8)     // data[8] = arg
      .ld(3, 2, 8)     // r3 = data[8]
      .mov(0, 3)
      .add(0, 3)
      .ret();
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "ls");
  sched_.enter(sched_.spawn("t"));
  auto r = f.run(std::array<std::int64_t, 1>{21}, sched_, engine_, costs_,
                 nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST_F(VmTest, OutOfSegmentAccessFaults) {
  VmAssembler a;
  a.loadi(2, 0).st(1, 2, 1000).ret();  // data segment is only 64 bytes
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "oob");
  sched_.enter(sched_.spawn("t"));
  std::uint64_t violations_before = gdt_.stats().violations;
  auto r = f.run(std::array<std::int64_t, 1>{5}, sched_, engine_, costs_,
                 nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEFAULT);
  EXPECT_GT(gdt_.stats().violations, violations_before);
}

TEST_F(VmTest, IsolatedModeFetchesThroughCodeSegment) {
  VmAssembler a;
  a.loadi(0, 11).ret();
  VmFunction f(a.take(), 64, SafetyMode::kIsolatedSegments, gdt_, "iso");
  sched_.enter(sched_.spawn("t"));
  VmRunStats stats;
  auto r = f.run({}, sched_, engine_, costs_, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 11);
  EXPECT_GE(stats.seg_checks, 2u);          // per-instruction fetch checks
  EXPECT_GE(gdt_.stats().far_calls, 1u);    // entry charged a far call
}

TEST_F(VmTest, IsolatedModeChargesFarCall) {
  VmAssembler a1, a2;
  a1.loadi(0, 1).ret();
  a2.loadi(0, 1).ret();
  VmFunction iso(a1.take(), 64, SafetyMode::kIsolatedSegments, gdt_, "i");
  VmFunction data(a2.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "d");
  sched::Task& t = sched_.enter(sched_.spawn("t"));
  t.enter_kernel();
  std::uint64_t k0 = t.times().kernel;
  (void)data.run({}, sched_, engine_, costs_, nullptr);
  std::uint64_t data_cost = t.times().kernel - k0;
  std::uint64_t k1 = t.times().kernel;
  (void)iso.run({}, sched_, engine_, costs_, nullptr);
  std::uint64_t iso_cost = t.times().kernel - k1;
  EXPECT_GE(iso_cost, data_cost + costs_.far_call);
}

TEST_F(VmTest, LoopWithBackEdgePreemption) {
  // sum 1..100 via loop
  VmAssembler a;
  a.loadi(0, 0).loadi(3, 1).loadi(4, 101);
  std::size_t loop = a.here();
  a.add(0, 3).addi(3, 1).jlt(3, 4, static_cast<std::int64_t>(loop)).ret();
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "sum");
  sched_.enter(sched_.spawn("t"));
  VmRunStats stats;
  auto r = f.run({}, sched_, engine_, costs_, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5050);
  EXPECT_EQ(stats.back_edges, 99u);
}

TEST_F(VmTest, WatchdogKillsRunawayFunction) {
  VmAssembler a;
  std::size_t loop = a.here();
  a.addi(0, 1).jmp(static_cast<std::int64_t>(loop));
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "spin");
  sched::Task& t = sched_.enter(sched_.spawn("t"));
  t.set_kernel_budget(50'000);
  t.enter_kernel();
  auto r = f.run({}, sched_, engine_, costs_, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEKILLED);
  EXPECT_EQ(t.state(), sched::TaskState::kKilled);
}

TEST_F(VmTest, FallingOffEndIsError) {
  VmAssembler a;
  a.loadi(0, 1);  // no ret
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "noret");
  sched_.enter(sched_.spawn("t"));
  auto r = f.run({}, sched_, engine_, costs_, nullptr);
  EXPECT_FALSE(r.ok());
}

TEST_F(VmTest, PokePeekDataSegment) {
  VmAssembler a;
  a.loadi(2, 0).ld(0, 2, 0).ret();  // return data[0]
  VmFunction f(a.take(), 64, SafetyMode::kDataSegmentOnly, gdt_, "peek");
  std::int64_t seed = 1234;
  ASSERT_EQ(f.poke(0, &seed, sizeof(seed)), Errno::kOk);
  sched_.enter(sched_.spawn("t"));
  auto r = f.run({}, sched_, engine_, costs_, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1234);
}

TEST_F(VmTest, FuzzedBytecodeNeverEscapes) {
  // Random instruction streams must always terminate (ret, fault, or
  // watchdog kill) without touching memory outside the data segment.
  base::Rng rng(31337);
  std::uint64_t kills = 0, faults = 0, returns = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<cosy::VmInstr> code;
    std::size_t len = rng.range(1, 24);
    for (std::size_t i = 0; i < len; ++i) {
      cosy::VmInstr in;
      in.op = static_cast<cosy::VmOp>(rng.below(20));
      in.r1 = static_cast<std::uint8_t>(rng.below(256));
      in.r2 = static_cast<std::uint8_t>(rng.below(256));
      in.imm = static_cast<std::int64_t>(rng.next() % 64) -
               (rng.chance(1, 4) ? 32 : 0);
      code.push_back(in);
    }
    cosy::VmFunction f(std::move(code), 64,
                       rng.chance(1, 2)
                           ? cosy::SafetyMode::kIsolatedSegments
                           : cosy::SafetyMode::kDataSegmentOnly,
                       gdt_, "fuzz" + std::to_string(trial));
    sched::Task& t = sched_.enter(sched_.spawn("fz" + std::to_string(trial)));
    t.set_kernel_budget(20'000);
    t.enter_kernel();
    auto r = f.run(std::array<std::int64_t, 2>{1, 2}, sched_, engine_,
                   costs_, nullptr);
    t.exit_kernel();
    if (r.ok()) {
      ++returns;
    } else if (r.error() == Errno::kEKILLED) {
      ++kills;
    } else {
      ++faults;
    }
  }
  // All three outcomes occur across the corpus; none crashed the host.
  EXPECT_GT(returns + kills + faults, 0u);
  EXPECT_GT(faults + kills, 0u);  // some programs misbehaved and were stopped
}

// Cosy ops run the kernel's own handlers, so a one-op compound returns
// exactly what the classic call returns -- including the error order
// (EBADF before EFAULT, EFAULT before the path walk), the kMaxPath limit
// and the kMaxIo clamp.
TEST_F(CosyTest, OneOpCompoundMatchesClassicCall) {
  constexpr std::size_t k3MiB = 3u << 20;
  SharedBuffer big(4u << 20);
  const std::int64_t oob = static_cast<std::int64_t>(big.size());
  const std::string long_path = "/" + std::string(4999, 'x');
  std::vector<std::byte> blob(k3MiB, std::byte{0x5a});
  {
    int fd = proc_.open("/big", fs::kOWrOnly | fs::kOCreat);
    ASSERT_GE(fd, 0);
    for (std::size_t off = 0; off < blob.size(); off += uk::Kernel::kMaxIo) {
      ASSERT_EQ(proc_.write(fd, blob.data() + off, uk::Kernel::kMaxIo),
                static_cast<SysRet>(uk::Kernel::kMaxIo));
    }
    proc_.close(fd);
  }
  uk::Kernel& k = kernel_;
  uk::Process& p = proc_.process();
  fs::StatBuf st;

  struct Case {
    const char* name;
    std::function<SysRet()> classic;
    std::function<void(CompoundBuilder&)> compound;
  };
  const Case cases[] = {
      {"read, closed fd 7, out-of-range buffer",
       [&] { return k.sys_read(p, 7, nullptr, 16); },
       [&](CompoundBuilder& b) { b.read(imm(7), shared(oob), imm(16)); }},
      {"write, closed fd 7, out-of-range buffer",
       [&] { return k.sys_write(p, 7, nullptr, 16); },
       [&](CompoundBuilder& b) { b.write(imm(7), shared(oob), imm(16)); }},
      {"stat, missing path, out-of-range buffer",
       [&] { return k.sys_stat(p, "/missing", nullptr); },
       [&](CompoundBuilder& b) { b.stat(b.str("/missing"), shared(oob)); }},
      {"stat, 5000-byte path",
       [&] { return k.sys_stat(p, long_path.c_str(), &st); },
       [&](CompoundBuilder& b) { b.stat(b.str(long_path), shared(0)); }},
      {"read of 3 MiB in one call",
       [&] {
         const int fd = proc_.open("/big", fs::kORdOnly);
         const SysRet r = k.sys_read(p, fd, blob.data(), k3MiB);
         proc_.close(fd);
         return r;
       },
       [&](CompoundBuilder& b) {
         const int o = b.open(b.str("/big"), imm(fs::kORdOnly), imm(0));
         b.read(result_of(o), shared(0),
                imm(static_cast<std::int64_t>(k3MiB)));
         b.close(result_of(o));
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SysRet want = c.classic();
    CompoundBuilder b;
    c.compound(b);
    const Compound comp = b.finish();
    CosyResult r = ext_.execute(p, comp, big);
    ASSERT_EQ(r.ret, 0);
    // The case's syscall is the compound's only op, or the middle one
    // of open/read/close.
    const std::size_t op = comp.ops.size() == 2 ? 0 : 1;
    EXPECT_EQ(r.results[op], want);
  }
  EXPECT_EQ(p.fds.open_count(), 0u);
}

TEST_F(CosyTest, CompoundCallsVmFunction) {
  // Install f(x) = x * 3 and call it from a compound.
  VmAssembler a;
  a.mov(0, 1).loadi(2, 3).mul(0, 2).ret();
  int fid = ext_.install_function(a.take(), 64, SafetyMode::kDataSegmentOnly,
                                  "triple");
  CompoundBuilder b;
  b.call_func(fid, {imm(14)}, 0);
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[0], 42);
}

TEST_F(CosyTest, VmFaultAbortsCompound) {
  VmAssembler a;
  a.loadi(2, 0).st(1, 2, 4000).ret();  // out of its 64-byte segment
  int fid = ext_.install_function(a.take(), 64, SafetyMode::kDataSegmentOnly,
                                  "bad");
  CompoundBuilder b;
  b.call_func(fid, {imm(1)}, 0);
  b.set_local(1, imm(99));  // must NOT run
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEFAULT);
  EXPECT_EQ(r.locals[1], 0);
  EXPECT_GE(ext_.stats().aborted, 1u);
}

TEST_F(CosyTest, UnknownFunctionIdAborts) {
  CompoundBuilder b;
  b.call_func(42, {imm(1)}, 0);
  Compound c = b.finish();
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEINVAL);
}

// callf passes at most four arguments (the VM's r1..r4), although a
// syscall op takes five registers.
TEST_F(CosyTest, CallFuncTakesAtMostFourArgs) {
  CompoundBuilder b;
  b.call_func(42, {imm(1), imm(2), imm(3), imm(4), imm(5)}, 0);
  Compound c = b.finish();
  EXPECT_EQ(c.ops[0].nargs, kMaxFuncArgs);
  EXPECT_TRUE(validate(c, shared_.size()).ok);
  c.ops[0].nargs = kMaxFuncArgs + 1;
  ValidationResult v = validate(c, shared_.size());
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.reason, "too many args");
}

// ...a call to an unknown function after an open...
TEST_F(CosyTest, UnknownFunctionIdAbortClosesOpenedFd) {
  make_file("/leak-fn", "x");
  const std::size_t fds0 = proc_.process().fds.open_count();
  CompoundBuilder b;
  b.open(b.str("/leak-fn"), imm(fs::kORdOnly), imm(0));
  b.call_func(42, {imm(1)}, 0);
  CosyResult r = ext_.execute(proc_.process(), b.finish(), shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEINVAL);
  EXPECT_EQ(proc_.process().fds.open_count(), fds0);
  EXPECT_EQ(ext_.stats().fds_rolled_back, 1u);
}

// ...while a path argument that is not a string never gets that far:
// the signature check rejects the compound before anything runs.
TEST_F(CosyTest, NonStringPathIsRejectedBeforeAnyOpRuns) {
  make_file("/leak-path", "x");
  const std::size_t fds0 = proc_.process().fds.open_count();
  CompoundBuilder b;
  b.open(b.str("/leak-path"), imm(fs::kORdOnly), imm(0));
  b.open(imm(0), imm(fs::kORdOnly), imm(0));
  Compound c = b.finish();
  ValidationResult v = validate(c, shared_.size());
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.bad_op, 1u);
  EXPECT_NE(v.reason.find("path"), std::string::npos) << v.reason;
  CosyResult r = ext_.execute(proc_.process(), c, shared_);
  EXPECT_EQ(sysret_errno(r.ret), Errno::kEINVAL);
  EXPECT_EQ(r.ops_run, 0u);
  EXPECT_EQ(proc_.process().fds.open_count(), fds0);
}

}  // namespace
}  // namespace usk::cosy
