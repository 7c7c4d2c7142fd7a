// Tests for the Cosy compiler (the Cosy-GCC analogue): lexing, parsing,
// code generation, constant folding, control flow, and integration with
// the kernel extension.
#include <gtest/gtest.h>

#include <cstring>

#include "cosy/compiler.hpp"
#include "cosy/exec.hpp"
#include "cosy/shared_buffer.hpp"
#include "uk/userlib.hpp"

namespace usk::cosy {
namespace {

class CompilerExecTest : public ::testing::Test {
 protected:
  CompilerExecTest()
      : kernel_(fs_), proc_(kernel_, "cc-proc"), ext_(kernel_),
        shared_(1 << 16) {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  /// Compile and run, returning the program's `return` value.
  std::int64_t run(std::string_view src) {
    CompileResult cr = compile(src);
    EXPECT_TRUE(cr.ok) << cr.error;
    if (!cr.ok) return -1;
    auto v = validate(cr.compound, shared_.size());
    EXPECT_TRUE(v.ok) << v.reason << " at op " << v.bad_op;
    CosyResult r = ext_.execute(proc_.process(), cr.compound, shared_);
    EXPECT_EQ(r.ret, 0);
    return r.locals[kReturnLocal];
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

TEST_F(CompilerExecTest, ReturnConstant) {
  EXPECT_EQ(run("return 42;"), 42);
}

TEST_F(CompilerExecTest, ArithmeticPrecedence) {
  EXPECT_EQ(run("return 2 + 3 * 4;"), 14);
  EXPECT_EQ(run("return (2 + 3) * 4;"), 20);
  EXPECT_EQ(run("return 10 - 2 - 3;"), 5);       // left associative
  EXPECT_EQ(run("return 17 % 5 + 20 / 4;"), 7);
  EXPECT_EQ(run("return -5 + 3;"), -2);
}

TEST_F(CompilerExecTest, VariablesAndAssignment) {
  EXPECT_EQ(run("int x = 10; int y = x * 2; x = y + 1; return x;"), 21);
}

TEST_F(CompilerExecTest, IfElse) {
  EXPECT_EQ(run("int x = 5; int r = 0;"
                "if (x > 3) { r = 1; } else { r = 2; } return r;"),
            1);
  EXPECT_EQ(run("int x = 2; int r = 0;"
                "if (x > 3) { r = 1; } else { r = 2; } return r;"),
            2);
  EXPECT_EQ(run("int x = 1; if (x == 1) { x = 10; } return x;"), 10);
}

TEST_F(CompilerExecTest, AllComparisonOperators) {
  EXPECT_EQ(run("int r = 0; if (1 < 2) { r = r + 1; }"
                "if (2 <= 2) { r = r + 1; }"
                "if (3 > 2) { r = r + 1; }"
                "if (2 >= 3) { r = r + 100; }"
                "if (4 == 4) { r = r + 1; }"
                "if (4 != 4) { r = r + 100; } return r;"),
            4);
}

TEST_F(CompilerExecTest, WhileLoop) {
  EXPECT_EQ(run("int i = 0; int sum = 0;"
                "while (i < 10) { sum = sum + i; i = i + 1; }"
                "return sum;"),
            45);
}

TEST_F(CompilerExecTest, ForLoop) {
  EXPECT_EQ(run("int sum = 0;"
                "for (int i = 1; i <= 10; i = i + 1) { sum = sum + i; }"
                "return sum;"),
            55);
}

TEST_F(CompilerExecTest, NestedLoops) {
  EXPECT_EQ(run("int total = 0;"
                "for (int i = 0; i < 5; i = i + 1) {"
                "  for (int j = 0; j < 4; j = j + 1) {"
                "    total = total + 1;"
                "  }"
                "}"
                "return total;"),
            20);
}

TEST_F(CompilerExecTest, LogicalOperatorsShortCircuit) {
  EXPECT_EQ(run("int r = 0; if (1 < 2 && 3 < 4) { r = 1; } return r;"), 1);
  EXPECT_EQ(run("int r = 0; if (1 < 2 && 4 < 3) { r = 1; } return r;"), 0);
  EXPECT_EQ(run("int r = 0; if (2 < 1 || 3 < 4) { r = 1; } return r;"), 1);
  EXPECT_EQ(run("int r = 0; if (2 < 1 || 4 < 3) { r = 1; } return r;"), 0);
  // Precedence: && binds tighter than || (0 && x) || 1 == 1.
  EXPECT_EQ(run("int r = 0; if (2 < 1 && 1 < 2 || 1 < 2) { r = 1; }"
                "return r;"),
            1);
  // Short-circuit: the RHS syscall must not run when the LHS decides.
  EXPECT_EQ(run("int fd = 0 - 1;"
                "int r = 0;"
                "if (fd >= 0 && read(fd, @0, 4) > 0) { r = 1; }"
                "return r;"),
            0);  // read(-1,...) would return EBADF but must not execute
}

TEST_F(CompilerExecTest, ShortCircuitSkipsSyscalls) {
  // getpid() on the RHS of a dead && must not add to the op count.
  CompileResult cr = compile("int x = 0; if (x && getpid()) { x = 2; }"
                             "return x;");
  ASSERT_TRUE(cr.ok) << cr.error;
  CosyResult r = ext_.execute(proc_.process(), cr.compound, shared_);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[kReturnLocal], 0);
  // The getpid op exists in the compound but was jumped over: its result
  // slot stays 0 and the pid (nonzero) never appears in the results.
  bool pid_ran = false;
  for (std::size_t i = 0; i < cr.compound.ops.size(); ++i) {
    const OpRecord& op = cr.compound.ops[i];
    if (op.op == Op::kSys &&
        op.aux == static_cast<std::int32_t>(uk::Sys::kGetpid) &&
        r.results[i] != 0) {
      pid_ran = true;
    }
  }
  EXPECT_FALSE(pid_ran);
}

TEST_F(CompilerExecTest, BreakAndContinue) {
  EXPECT_EQ(run("int s = 0;"
                "for (int i = 0; i < 100; i += 1) {"
                "  if (i == 5) { break; }"
                "  s += i;"
                "}"
                "return s;"),
            10);  // 0+1+2+3+4
  EXPECT_EQ(run("int s = 0;"
                "for (int i = 0; i < 10; i += 1) {"
                "  if (i % 2 == 0) { continue; }"
                "  s += i;"
                "}"
                "return s;"),
            25);  // 1+3+5+7+9
  EXPECT_EQ(run("int n = 0;"
                "while (1) {"
                "  n += 1;"
                "  if (n >= 7) { break; }"
                "}"
                "return n;"),
            7);
  // continue in a while loop re-tests the condition.
  EXPECT_EQ(run("int i = 0; int s = 0;"
                "while (i < 6) {"
                "  i += 1;"
                "  if (i == 3) { continue; }"
                "  s += i;"
                "}"
                "return s;"),
            18);  // 1+2+4+5+6
}

TEST_F(CompilerExecTest, NestedLoopBreakOnlyExitsInner) {
  EXPECT_EQ(run("int total = 0;"
                "for (int i = 0; i < 4; i += 1) {"
                "  for (int j = 0; j < 10; j += 1) {"
                "    if (j == 2) { break; }"
                "    total += 1;"
                "  }"
                "}"
                "return total;"),
            8);  // 2 inner iterations x 4 outer
}

TEST_F(CompilerExecTest, CompoundAssignmentOperators) {
  EXPECT_EQ(run("int x = 10; x += 5; x -= 3; x *= 4; x /= 2; x %= 7;"
                "return x;"),
            3);  // ((10+5-3)*4/2) % 7 = 24 % 7 = 3
}

TEST_F(CompilerExecTest, TruthinessCondition) {
  EXPECT_EQ(run("int x = 3; int n = 0;"
                "while (x) { x = x - 1; n = n + 1; } return n;"),
            3);
}

TEST_F(CompilerExecTest, CommentsAreSkipped) {
  EXPECT_EQ(run("// leading comment\nint x = 1; // trailing\nreturn x;"), 1);
}

TEST_F(CompilerExecTest, GetpidCall) {
  EXPECT_EQ(run("return getpid();"),
            static_cast<std::int64_t>(proc_.task().pid()));
}

TEST_F(CompilerExecTest, OpenReadCloseProgram) {
  make_file("/input", "0123456789abcdef");
  std::int64_t n = run(
      "int fd = open(\"/input\", O_RDONLY);"
      "int n = read(fd, @0, 100);"
      "close(fd);"
      "return n;");
  EXPECT_EQ(n, 16);
  EXPECT_EQ(std::memcmp(shared_.data(), "0123456789abcdef", 16), 0);
}

TEST_F(CompilerExecTest, SequentialScanLoop) {
  make_file("/big", std::string(10000, 'Q'));
  // Read the file in 1 KiB chunks, counting total bytes -- the paper's
  // sequential-access database pattern.
  std::int64_t total = run(
      "int fd = open(\"/big\", O_RDONLY);"
      "int total = 0;"
      "int n = 1;"
      "while (n > 0) {"
      "  n = read(fd, @0, 1024);"
      "  total = total + n;"
      "}"
      "close(fd);"
      "return total;");
  EXPECT_EQ(total, 10000);
}

TEST_F(CompilerExecTest, DynamicSharedOffsets) {
  make_file("/blk", "AAAABBBBCCCCDDDD");
  // Read 4-byte records into consecutive shared slots.
  std::int64_t r = run(
      "int fd = open(\"/blk\", O_RDONLY);"
      "for (int i = 0; i < 4; i = i + 1) {"
      "  read(fd, @(i * 4), 4);"
      "}"
      "close(fd);"
      "return 1;");
  ASSERT_EQ(r, 1);
  EXPECT_EQ(std::memcmp(shared_.data(), "AAAABBBBCCCCDDDD", 16), 0);
}

TEST_F(CompilerExecTest, WriteProgram) {
  std::memcpy(shared_.data(), "written-by-cosy", 15);
  std::int64_t n = run(
      "int fd = open(\"/wout\", O_WRONLY + O_CREAT);"
      "int n = write(fd, @0, 15);"
      "close(fd);"
      "return n;");
  EXPECT_EQ(n, 15);
  char buf[32] = {};
  int fd = proc_.open("/wout", fs::kORdOnly);
  proc_.read(fd, buf, sizeof(buf));
  proc_.close(fd);
  EXPECT_STREQ(buf, "written-by-cosy");
}

TEST_F(CompilerExecTest, LseekAndStat) {
  make_file("/seekme", "0123456789");
  std::int64_t r = run(
      "int fd = open(\"/seekme\", O_RDONLY);"
      "lseek(fd, 5, SEEK_SET);"
      "int n = read(fd, @0, 100);"
      "fstat(fd, @256);"
      "close(fd);"
      "stat(\"/seekme\", @512);"
      "return n;");
  EXPECT_EQ(r, 5);
  fs::StatBuf st1, st2;
  std::memcpy(&st1, shared_.data() + 256, sizeof(st1));
  std::memcpy(&st2, shared_.data() + 512, sizeof(st2));
  EXPECT_EQ(st1.size, 10u);
  EXPECT_EQ(st1.ino, st2.ino);
}

TEST_F(CompilerExecTest, ReaddirBuiltin) {
  proc_.mkdir("/dir");
  for (int i = 0; i < 8; ++i) {
    make_file(("/dir/x" + std::to_string(i)).c_str(), "d");
  }
  std::int64_t total = run(
      "int fd = open(\"/dir\", O_RDONLY);"
      "int total = 0;"
      "int n = 1;"
      "while (n > 0) {"
      "  n = readdir(fd, @0, 512);"
      "  total = total + n;"
      "}"
      "close(fd);"
      "return total;");
  // 8 entries x (10-byte header + 2-byte name) = 96 bytes.
  EXPECT_EQ(total, 8 * 12);
}

TEST_F(CompilerExecTest, MkdirUnlink) {
  EXPECT_EQ(run("mkdir(\"/newdir\");"
                "int fd = open(\"/newdir/f\", O_WRONLY + O_CREAT);"
                "close(fd);"
                "unlink(\"/newdir/f\");"
                "return 7;"),
            7);
  fs::StatBuf st;
  EXPECT_EQ(proc_.stat("/newdir", &st), 0);
  EXPECT_EQ(proc_.stat("/newdir/f", &st),
            -static_cast<SysRet>(Errno::kENOENT));
}

TEST_F(CompilerExecTest, EarlyReturnSkipsRest) {
  EXPECT_EQ(run("int x = 1;"
                "if (x == 1) { return 5; }"
                "return 9;"),
            5);
}

TEST_F(CompilerExecTest, CompiledLoopIsSingleCrossing) {
  make_file("/once", std::string(4096, 'x'));
  CompileResult cr = compile(
      "int fd = open(\"/once\", O_RDONLY);"
      "int total = 0; int n = 1;"
      "while (n > 0) { n = read(fd, @0, 512); total = total + n; }"
      "close(fd);"
      "return total;");
  ASSERT_TRUE(cr.ok) << cr.error;
  std::uint64_t before = kernel_.boundary().stats().crossings;
  CosyResult r = ext_.execute(proc_.process(), cr.compound, shared_);
  EXPECT_EQ(r.ret, 0);
  EXPECT_EQ(kernel_.boundary().stats().crossings, before + 1);
  EXPECT_EQ(r.locals[kReturnLocal], 4096);
}

// --- compile errors --------------------------------------------------------------------

TEST(CompilerErrorTest, UndeclaredVariable) {
  CompileResult r = compile("return missing;");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("undeclared"), std::string::npos);
}

TEST(CompilerErrorTest, Redeclaration) {
  CompileResult r = compile("int x = 1; int x = 2;");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("redeclaration"), std::string::npos);
}

TEST(CompilerErrorTest, UnknownFunction) {
  CompileResult r = compile("int x = frobnicate(1);");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown function"), std::string::npos);
}

TEST(CompilerErrorTest, WrongArity) {
  CompileResult r = compile("int x = read(1);");
  EXPECT_FALSE(r.ok);
}

TEST(CompilerErrorTest, MissingSemicolon) {
  CompileResult r = compile("int x = 1 return x;");
  EXPECT_FALSE(r.ok);
}

TEST(CompilerErrorTest, StringInArithmetic) {
  CompileResult r = compile("int x = \"abc\" + 1;");
  EXPECT_FALSE(r.ok);
}

TEST(CompilerErrorTest, BreakOutsideLoop) {
  CompileResult r = compile("break;");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("outside"), std::string::npos);
  r = compile("continue;");
  EXPECT_FALSE(r.ok);
}

TEST(CompilerErrorTest, DivisionByConstantZero) {
  CompileResult r = compile("int x = 5 / 0;");
  EXPECT_FALSE(r.ok);
}

TEST(CompilerErrorTest, ErrorsCarryLineNumbers) {
  CompileResult r = compile("int a = 1;\nint b = 2;\nreturn nope;");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos);
}

TEST(MarkedRegionTest, ExtractsAndCompilesRegions) {
  const char* source = R"(
    #include <stdio.h>
    int main(void) {
      setup();
      // COSY_START
      int total = 0;
      for (int i = 0; i < 10; i = i + 1) { total = total + i; }
      return total;
      // COSY_END
      teardown();
      /* COSY_START */
      return 7;
      /* COSY_END */
    }
  )";
  auto regions = cosy::compile_marked(source);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_TRUE(regions[0].result.ok) << regions[0].result.error;
  EXPECT_TRUE(regions[1].result.ok) << regions[1].result.error;
  EXPECT_LT(regions[0].begin_offset, regions[0].end_offset);
}

TEST(MarkedRegionTest, MarkedRegionExecutes) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  uk::Proc proc(kernel, "marked");
  cosy::CosyExtension ext(kernel);
  cosy::SharedBuffer shared(4096);
  auto regions = cosy::compile_marked(
      "// COSY_START\nreturn 6 * 7;\n// COSY_END\n");
  ASSERT_EQ(regions.size(), 1u);
  ASSERT_TRUE(regions[0].result.ok) << regions[0].result.error;
  cosy::CosyResult r =
      ext.execute(proc.process(), regions[0].result.compound, shared);
  ASSERT_EQ(r.ret, 0);
  EXPECT_EQ(r.locals[cosy::kReturnLocal], 42);
}

TEST(MarkedRegionTest, UnterminatedAndNestedMarkers) {
  auto unterminated =
      cosy::compile_marked("// COSY_START\nreturn 1;\n");
  ASSERT_EQ(unterminated.size(), 1u);
  EXPECT_FALSE(unterminated[0].result.ok);
  EXPECT_NE(unterminated[0].result.error.find("without matching"),
            std::string::npos);

  auto nested = cosy::compile_marked(
      "// COSY_START\n// COSY_START\nreturn 1;\n// COSY_END\n");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_FALSE(nested[0].result.ok);
  EXPECT_NE(nested[0].result.error.find("nested"), std::string::npos);
}

TEST(MarkedRegionTest, NoMarkersNoRegions) {
  EXPECT_TRUE(cosy::compile_marked("int main() { return 0; }").empty());
}

TEST(CompilerTest, ConstantFoldingShrinksCode) {
  CompileResult folded = compile("return 2 * 3 + 4;");
  ASSERT_TRUE(folded.ok);
  CompileResult unfolded = compile("int a = 2; int b = 3; return a * b + 4;");
  ASSERT_TRUE(unfolded.ok);
  EXPECT_LT(folded.compound.ops.size(), unfolded.compound.ops.size());
}

TEST(CompilerTest, CompiledOutputAlwaysValidates) {
  const char* programs[] = {
      "return 1;",
      "int x = 2; while (x) { x = x - 1; } return x;",
      "for (int i = 0; i < 3; i = i + 1) { getpid(); } return 0;",
      "if (1 < 2) { return 3; } else { return 4; }",
  };
  for (const char* src : programs) {
    CompileResult r = compile(src);
    ASSERT_TRUE(r.ok) << src << ": " << r.error;
    auto v = validate(r.compound, 4096);
    EXPECT_TRUE(v.ok) << src << ": " << v.reason;
  }
}

}  // namespace
}  // namespace usk::cosy
