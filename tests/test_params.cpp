// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// ring-buffer capacities, kmalloc size classes, Kefence mode matrix,
// vmalloc guard layouts, boundary cost models, and a Cosy program table.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <tuple>

#include "base/rng.hpp"
#include "cosy/compiler.hpp"
#include "cosy/exec.hpp"
#include "evmon/ring_buffer.hpp"
#include "kefence/kefence.hpp"
#include "mm/kmalloc.hpp"
#include "mm/vmalloc.hpp"
#include "uk/userlib.hpp"

namespace usk {
namespace {

// --- ring buffer across capacities -------------------------------------------------

class RingCapacityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingCapacityTest, FifoAndConservationAtEveryCapacity) {
  evmon::RingBuffer rb(GetParam());
  base::Rng rng(GetParam());
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 5000; ++round) {
    if (rng.chance(3, 5)) {
      evmon::Event e;
      e.type = next_in;
      if (rb.push(e)) ++next_in;
    } else {
      evmon::Event e;
      if (rb.pop(&e)) {
        ASSERT_EQ(e.type, next_out);
        ++next_out;
      }
    }
  }
  evmon::Event e;
  while (rb.pop(&e)) {
    ASSERT_EQ(e.type, next_out);
    ++next_out;
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(rb.pushed(), static_cast<std::uint64_t>(next_in));
  EXPECT_EQ(rb.pushed() + rb.dropped(), rb.pushed() + rb.dropped());
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingCapacityTest,
                         ::testing::Values(2, 8, 64, 512, 4096));

// --- kmalloc across request sizes --------------------------------------------------------

class KmallocSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KmallocSizeTest, RoundTripAtEverySize) {
  vm::PhysMem pm(512);
  mm::Kmalloc km(pm);
  std::size_t n = GetParam();
  mm::BufferHandle h = km.alloc(n, "p.c", 1);
  ASSERT_TRUE(h.valid());
  std::vector<std::uint8_t> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_EQ(km.write(h, 0, in.data(), n), Errno::kOk);
  std::vector<std::uint8_t> out(n);
  ASSERT_EQ(km.read(h, 0, out.data(), n), Errno::kOk);
  EXPECT_EQ(in, out);
  km.free(h);
  EXPECT_EQ(km.stats().outstanding_allocs, 0u);
  EXPECT_GE(mm::Kmalloc::size_class(std::min<std::size_t>(n, 4096)), 32u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KmallocSizeTest,
                         ::testing::Values(1, 31, 32, 33, 80, 100, 1000,
                                           4096, 4097, 20000));

// --- Kefence mode x alignment matrix ----------------------------------------------------

using KefenceParam = std::tuple<kefence::Mode, bool /*underflow*/>;

class KefenceMatrixTest : public ::testing::TestWithParam<KefenceParam> {
 protected:
  KefenceMatrixTest() : pm_(1024), as_(pm_, "kfm"), vm_(as_, 0x1000000, 8192) {}
  vm::PhysMem pm_;
  vm::AddressSpace as_;
  mm::Vmalloc vm_;
};

TEST_P(KefenceMatrixTest, ExactEdgeDetectionInEveryConfiguration) {
  auto [mode, underflow] = GetParam();
  kefence::KefenceOptions opt;
  opt.mode = mode;
  opt.protect_underflow = underflow;
  kefence::Kefence kef(vm_, opt);

  // Page-multiple allocations have byte-exact edges on BOTH sides in every
  // configuration.
  mm::BufferHandle h = kef.alloc(vm::kPageSize, "m.c", 1);
  ASSERT_TRUE(h.valid());
  char b = 1;
  // In-bounds first and last byte always work.
  EXPECT_EQ(kef.write(h, 0, &b, 1), Errno::kOk);
  EXPECT_EQ(kef.write(h, vm::kPageSize - 1, &b, 1), Errno::kOk);
  // One byte past the end faults (read OOB in remap-rw mode still logs).
  Errno e = kef.write(h, vm::kPageSize, &b, 1);
  if (mode == kefence::Mode::kLogRemapReadWrite) {
    EXPECT_EQ(e, Errno::kOk);  // auto-mapped, but logged
  } else {
    EXPECT_EQ(e, Errno::kEFAULT);
  }
  EXPECT_EQ(kef.kstats().overflows, 1u);
  if (mode == kefence::Mode::kCrashModule) {
    EXPECT_TRUE(kef.module_disabled());
  } else {
    EXPECT_FALSE(kef.module_disabled());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KefenceMatrixTest,
    ::testing::Combine(::testing::Values(kefence::Mode::kCrashModule,
                                         kefence::Mode::kLogRemapReadOnly,
                                         kefence::Mode::kLogRemapReadWrite),
                       ::testing::Bool()));

// --- vmalloc guard layouts ---------------------------------------------------------------

struct GuardLayout {
  std::size_t before;
  std::size_t after;
  bool align_end;
};

// Name each case by its fields: gtest would otherwise print the raw
// bytes, whose padding is uninitialised, so the names would change from
// run to run.
void PrintTo(const GuardLayout& l, std::ostream* os) {
  *os << "before" << l.before << "_after" << l.after
      << (l.align_end ? "_alignend" : "");
}

class VmallocLayoutTest : public ::testing::TestWithParam<GuardLayout> {};

TEST_P(VmallocLayoutTest, GuardsLandWhereConfigured) {
  GuardLayout layout = GetParam();
  vm::PhysMem pm(512);
  vm::AddressSpace as(pm, "vl");
  mm::Vmalloc vmalloc(as, 0x4000000, 4096);
  mm::VmallocOptions opt;
  opt.guard_pages_before = layout.before;
  opt.guard_pages_after = layout.after;
  opt.align_end = layout.align_end;
  vm::VAddr va = vmalloc.alloc(300, opt);
  ASSERT_NE(va, 0u);

  // Data accessible.
  std::uint8_t b = 9;
  EXPECT_EQ(as.store(va, &b, 1), Errno::kOk);
  EXPECT_EQ(as.store(va + 299, &b, 1), Errno::kOk);

  const mm::Vmalloc::Area* area = vmalloc.find_area_containing(va);
  ASSERT_NE(area, nullptr);
  // Guard pages present where requested.
  for (std::size_t g = 0; g < layout.before; ++g) {
    const vm::Pte* pte =
        as.lookup(area->first_page + g * vm::kPageSize);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->guard);
  }
  for (std::size_t g = 0; g < layout.after; ++g) {
    vm::VAddr guard_va = area->first_page +
                         (layout.before + area->data_pages + g) *
                             vm::kPageSize;
    const vm::Pte* pte = as.lookup(guard_va);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->guard);
  }
  if (layout.align_end) {
    EXPECT_EQ((va + 300) % vm::kPageSize, 0u);
  } else {
    EXPECT_EQ(va % vm::kPageSize, 0u);
  }
  EXPECT_EQ(vmalloc.free(va), Errno::kOk);
}

INSTANTIATE_TEST_SUITE_P(Layouts, VmallocLayoutTest,
                         ::testing::Values(GuardLayout{0, 0, false},
                                           GuardLayout{1, 0, false},
                                           GuardLayout{0, 1, true},
                                           GuardLayout{1, 1, true},
                                           GuardLayout{2, 2, false}));

// --- boundary cost models ---------------------------------------------------------------------

class CostModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CostModelTest, KernelTimeScalesWithCrossingCost) {
  fs::MemFs fs;
  uk::KernelConfig cfg;
  cfg.boundary.crossing_alu = GetParam();
  cfg.boundary.crossing_cache = 0;
  uk::Kernel kernel(fs, cfg);
  uk::Proc proc(kernel, "cm");
  std::uint64_t k0 = proc.task().times().kernel;
  for (int i = 0; i < 10; ++i) proc.getpid();
  std::uint64_t per_call = (proc.task().times().kernel - k0) / 10;
  // enter charges crossing_alu, exit charges crossing_alu/2.
  EXPECT_EQ(per_call, GetParam() + GetParam() / 2);
}

INSTANTIATE_TEST_SUITE_P(Costs, CostModelTest,
                         ::testing::Values(10, 100, 450, 2000, 10000));

// --- Cosy program table --------------------------------------------------------------------

struct CosyProgram {
  const char* name;
  const char* src;
  std::int64_t expect;
};

// Name each case by its program: gtest would otherwise print the raw
// bytes, string pointers included, so the test names would change with
// every load address.
void PrintTo(const CosyProgram& prog, std::ostream* os) { *os << prog.name; }

class CosyProgramTest : public ::testing::TestWithParam<CosyProgram> {};

TEST_P(CosyProgramTest, CompilesValidatesAndComputes) {
  const CosyProgram& prog = GetParam();
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  fs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "cp");
  cosy::CosyExtension ext(kernel);
  cosy::SharedBuffer shared(4096);

  cosy::CompileResult cr = cosy::compile(prog.src);
  ASSERT_TRUE(cr.ok) << prog.name << ": " << cr.error;
  ASSERT_TRUE(cosy::validate(cr.compound, shared.size()).ok) << prog.name;
  cosy::CosyResult r = ext.execute(proc.process(), cr.compound, shared);
  ASSERT_EQ(r.ret, 0) << prog.name;
  EXPECT_EQ(r.locals[cosy::kReturnLocal], prog.expect) << prog.name;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, CosyProgramTest,
    ::testing::Values(
        CosyProgram{"constant", "return 99;", 99},
        CosyProgram{"gauss100",
                    "int s = 0;"
                    "for (int i = 1; i <= 100; i = i + 1) { s = s + i; }"
                    "return s;",
                    5050},
        CosyProgram{"fib15",
                    "int a = 0; int b = 1;"
                    "for (int i = 0; i < 15; i = i + 1) {"
                    "  int t = a + b; a = b; b = t;"
                    "}"
                    "return a;",
                    610},
        CosyProgram{"collatz27",
                    "int n = 27; int steps = 0;"
                    "while (n != 1) {"
                    "  if (n % 2 == 0) { n = n / 2; }"
                    "  else { n = 3 * n + 1; }"
                    "  steps = steps + 1;"
                    "}"
                    "return steps;",
                    111},
        CosyProgram{"gcd", "int a = 1071; int b = 462;"
                           "while (b != 0) { int t = b; b = a % b; a = t; }"
                           "return a;",
                    21},
        CosyProgram{"nested-sum",
                    "int s = 0;"
                    "for (int i = 0; i < 7; i = i + 1) {"
                    "  for (int j = 0; j < 9; j = j + 1) {"
                    "    if (i < j) { s = s + 1; }"
                    "  }"
                    "}"
                    "return s;",
                    35},
        CosyProgram{"early-return",
                    "for (int i = 0; i < 100; i = i + 1) {"
                    "  if (i == 12) { return i * 2; }"
                    "}"
                    "return 0 - 1;",
                    24}));

}  // namespace
}  // namespace usk
