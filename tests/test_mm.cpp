// Tests for the kernel allocators: kmalloc size classes, vmalloc area
// management, guard placement, the vfree hash-table speedup, and the
// Allocator interface semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.hpp"
#include "mm/kmalloc.hpp"
#include "mm/vmalloc.hpp"
#include "kfail_fixture.hpp"

namespace usk::mm {
namespace {

using KmallocTest = testutil::KfailTest;
using VmallocProperty = testutil::KfailTest;

TEST_F(KmallocTest, SizeClasses) {
  EXPECT_EQ(Kmalloc::size_class(1), 32u);
  EXPECT_EQ(Kmalloc::size_class(32), 32u);
  EXPECT_EQ(Kmalloc::size_class(33), 64u);
  EXPECT_EQ(Kmalloc::size_class(80), 128u);
  EXPECT_EQ(Kmalloc::size_class(4096), 4096u);
}

TEST_F(KmallocTest, AllocWriteReadFree) {
  vm::PhysMem pm(64);
  Kmalloc km(pm);
  BufferHandle h = km.alloc(80, "here", 1);
  ASSERT_TRUE(h.valid());
  std::uint8_t in[80];
  for (int i = 0; i < 80; ++i) in[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(km.write(h, 0, in, sizeof(in)), Errno::kOk);
  std::uint8_t out[80];
  EXPECT_EQ(km.read(h, 0, out, sizeof(out)), Errno::kOk);
  EXPECT_EQ(std::memcmp(in, out, 80), 0);
  km.free(h);
  EXPECT_EQ(km.stats().outstanding_allocs, 0u);
}

TEST_F(KmallocTest, ChunkReuseAfterFree) {
  vm::PhysMem pm(64);
  Kmalloc km(pm);
  BufferHandle a = km.alloc(100, "a", 1);
  void* ptr = a.raw;
  km.free(a);
  BufferHandle b = km.alloc(100, "b", 2);
  EXPECT_EQ(b.raw, ptr);  // LIFO free list hands the chunk back
  km.free(b);
}

TEST_F(KmallocTest, LargeAllocationUsesWholePages) {
  vm::PhysMem pm(64);
  Kmalloc km(pm);
  std::uint64_t frames_before = pm.stats().allocated_frames;
  BufferHandle h = km.alloc(3 * 4096 + 10, "large", 1);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(pm.stats().allocated_frames, frames_before + 4);
  km.free(h);
  EXPECT_EQ(pm.stats().allocated_frames, frames_before);
}

TEST_F(KmallocTest, OverflowCorruptsSilently) {
  // The defining property kmalloc has and Kefence fixes: writing past the
  // chunk succeeds and clobbers the neighbour.
  vm::PhysMem pm(64);
  Kmalloc km(pm);
  BufferHandle a = km.alloc(32, "a", 1);
  BufferHandle b = km.alloc(32, "b", 2);
  ASSERT_TRUE(a.valid() && b.valid());
  std::uint8_t poison[8];
  std::memset(poison, 0xEE, sizeof(poison));
  // Overflow a by its own size: no error reported.
  EXPECT_EQ(km.write(a, 32, poison, sizeof(poison)), Errno::kOk);
  km.free(a);
  km.free(b);
}

TEST_F(KmallocTest, MeanRequestSizeTracked) {
  vm::PhysMem pm(64);
  Kmalloc km(pm);
  std::vector<BufferHandle> hs;
  hs.push_back(km.alloc(60, "x", 1));
  hs.push_back(km.alloc(100, "x", 2));
  EXPECT_DOUBLE_EQ(km.stats().mean_request_size(), 80.0);
  for (auto& h : hs) km.free(h);
}

TEST_F(KmallocTest, EnomemWhenPoolExhausted) {
  vm::PhysMem pm(1);
  Kmalloc km(pm);
  BufferHandle a = km.alloc(4096, "a", 1);  // takes the only frame
  ASSERT_TRUE(a.valid());
  BufferHandle b = km.alloc(4096, "b", 2);
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(km.stats().failed_allocs, 1u);
  km.free(a);
}

// --- Vmalloc -------------------------------------------------------------------------------

class VmallocTest : public testutil::KfailTest {
 protected:
  VmallocTest() : pm_(512), as_(pm_, "vmalloc-test") {}
  vm::PhysMem pm_;
  vm::AddressSpace as_;
};

TEST_F(VmallocTest, AllocMapsPages) {
  Vmalloc vm(as_, 0x1000000, 256);
  vm::VAddr va = vm.alloc(10000);  // 3 pages
  ASSERT_NE(va, 0u);
  EXPECT_EQ(vm.stats().outstanding_data_pages, 3u);
  // Memory is usable through the MMU.
  std::uint64_t v = 99;
  EXPECT_EQ(as_.write(va, v), Errno::kOk);
  EXPECT_EQ(as_.read<std::uint64_t>(va).value(), 99u);
  EXPECT_EQ(vm.free(va), Errno::kOk);
  EXPECT_EQ(vm.stats().outstanding_data_pages, 0u);
}

TEST_F(VmallocTest, HolePageBetweenAreas) {
  Vmalloc vm(as_, 0x1000000, 256);
  vm::VAddr a = vm.alloc(100);
  vm::VAddr b = vm.alloc(100);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  // There is at least one unmapped page between the two areas.
  EXPECT_GE(vm::page_base(b) - vm::page_base(a), 2 * vm::kPageSize);
  std::uint8_t x = 0;
  EXPECT_EQ(as_.load(vm::page_base(a) + vm::kPageSize, &x, 1), Errno::kEFAULT);
}

TEST_F(VmallocTest, GuardPagesInstalled) {
  Vmalloc vm(as_, 0x1000000, 256);
  VmallocOptions opt;
  opt.guard_pages_before = 1;
  opt.guard_pages_after = 1;
  opt.align_end = true;
  vm::VAddr va = vm.alloc(100, opt);
  ASSERT_NE(va, 0u);
  // End-aligned: one byte past the buffer is the trailing guard page.
  const vm::Pte* guard = as_.lookup(va + 100);
  ASSERT_NE(guard, nullptr);
  EXPECT_TRUE(guard->guard);
  // Leading guard directly below the data page.
  const vm::Pte* lead = as_.lookup(vm::page_base(va) - 1);
  ASSERT_NE(lead, nullptr);
  EXPECT_TRUE(lead->guard);
}

TEST_F(VmallocTest, EndAlignmentPutsBufferFlushWithGuard) {
  Vmalloc vm(as_, 0x1000000, 256);
  VmallocOptions opt;
  opt.guard_pages_after = 1;
  opt.align_end = true;
  vm::VAddr va = vm.alloc(100, opt);
  EXPECT_EQ((va + 100) % vm::kPageSize, 0u);
}

TEST_F(VmallocTest, FreeUnknownAddressFails) {
  Vmalloc vm(as_, 0x1000000, 256);
  EXPECT_EQ(vm.free(0xABC000), Errno::kEINVAL);
}

TEST_F(VmallocTest, FindAreaContaining) {
  Vmalloc vm(as_, 0x1000000, 256);
  VmallocOptions opt;
  opt.guard_pages_after = 1;
  vm::VAddr va = vm.alloc(5000, opt, "site.c", 10);
  const Vmalloc::Area* area = vm.find_area_containing(va + 4999);
  ASSERT_NE(area, nullptr);
  EXPECT_EQ(area->data_va, va);
  EXPECT_STREQ(area->file, "site.c");
  // Guard page belongs to the area too.
  const Vmalloc::Area* guard_area =
      vm.find_area_containing(vm::page_base(va) + 2 * vm::kPageSize);
  EXPECT_EQ(guard_area, area);
  // The hole past the area does not.
  EXPECT_EQ(vm.find_area_containing(va + 16 * vm::kPageSize), nullptr);
}

TEST_F(VmallocTest, HashIndexSpeedsUpVfree) {
  // The paper's hash-table fix: lookup steps should not scale with the
  // number of live areas.
  Vmalloc with_hash(as_, 0x1000000, 4096, /*use_hash_index=*/true);
  vm::PhysMem pm2(4096);
  vm::AddressSpace as2(pm2, "nohash");
  Vmalloc without_hash(as2, 0x1000000, 4096, /*use_hash_index=*/false);

  constexpr int kAreas = 200;
  std::vector<vm::VAddr> a1, a2;
  for (int i = 0; i < kAreas; ++i) {
    a1.push_back(with_hash.alloc(64));
    a2.push_back(without_hash.alloc(64));
  }
  // Free in reverse order (worst case for the linear list).
  for (int i = kAreas - 1; i >= 0; --i) {
    ASSERT_EQ(with_hash.free(a1[static_cast<std::size_t>(i)]), Errno::kOk);
    ASSERT_EQ(without_hash.free(a2[static_cast<std::size_t>(i)]), Errno::kOk);
  }
  EXPECT_LT(with_hash.stats().lookup_steps * 10,
            without_hash.stats().lookup_steps);
}

TEST_F(VmallocTest, RegionExhaustion) {
  Vmalloc vm(as_, 0x1000000, 8);  // tiny region
  vm::VAddr a = vm.alloc(4096);   // 1 data page + 1 hole
  ASSERT_NE(a, 0u);
  vm::VAddr b = vm.alloc(4096 * 6);
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(vm.stats().failed, 1u);
}

TEST_F(VmallocTest, PhysFramesReturnedOnFree) {
  Vmalloc vm(as_, 0x1000000, 256);
  std::uint64_t before = pm_.stats().allocated_frames;
  vm::VAddr va = vm.alloc(8 * 4096);
  EXPECT_EQ(pm_.stats().allocated_frames, before + 8);
  vm.free(va);
  EXPECT_EQ(pm_.stats().allocated_frames, before);
}

TEST_F(VmallocTest, PageGranularityWastesMemoryVsKmalloc) {
  // The paper's §3.2 caveat: vmalloc consumes at least a page per
  // allocation; many small buffers cost far more physical memory.
  Kmalloc km(pm_);
  Vmalloc vm(as_, 0x1000000, 256);
  std::uint64_t base_frames = pm_.stats().allocated_frames;

  std::vector<BufferHandle> khandles;
  for (int i = 0; i < 32; ++i) khandles.push_back(km.alloc(80, "k", i));
  std::uint64_t kmalloc_frames = pm_.stats().allocated_frames - base_frames;

  std::vector<vm::VAddr> vas;
  for (int i = 0; i < 32; ++i) vas.push_back(vm.alloc(80));
  std::uint64_t vmalloc_frames =
      pm_.stats().allocated_frames - base_frames - kmalloc_frames;

  EXPECT_EQ(vmalloc_frames, 32u);     // one frame each
  EXPECT_LE(kmalloc_frames, 2u);      // slab packs ~51 chunks per frame

  for (auto& h : khandles) km.free(h);
  for (auto va : vas) vm.free(va);
}

// Property test: random alloc/free sequences keep stats consistent and
// all data intact.
TEST_F(VmallocProperty, RandomAllocFreeKeepsDataIntact) {
  vm::PhysMem pm(2048);
  vm::AddressSpace as(pm, "prop");
  Vmalloc vm(as, 0x2000000, 1 << 14);
  base::Rng rng(123);

  struct Live {
    vm::VAddr va;
    std::uint64_t tag;
    std::size_t size;
  };
  std::vector<Live> live;

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(3, 5)) {
      std::size_t size = rng.range(1, 3 * vm::kPageSize);
      vm::VAddr va = vm.alloc(size);
      if (va == 0) continue;  // region full; fine
      std::uint64_t tag = rng.next();
      ASSERT_EQ(as.write(va, tag), Errno::kOk);
      live.push_back({va, tag, size});
    } else {
      std::size_t i = rng.below(live.size());
      auto r = as.read<std::uint64_t>(live[i].va);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), live[i].tag) << "corruption at step " << step;
      ASSERT_EQ(vm.free(live[i].va), Errno::kOk);
      live[i] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(vm.stats().outstanding_areas, live.size());
}

}  // namespace
}  // namespace usk::mm
