#include "vm/phys.hpp"

#include <cassert>
#include <cstring>

namespace usk::vm {

PhysMem::PhysMem(std::size_t frames)
    // Left unzeroed: alloc_frame/alloc_contiguous zero every frame they
    // hand out, and nothing reads a frame that was never allocated.
    : backing_(
          std::make_unique_for_overwrite<std::byte[]>(frames * kPageSize)),
      allocated_(frames, false) {
  free_list_.reserve(frames);
  // Hand out low frames first (push high frames first).
  for (std::size_t i = frames; i-- > 0;) {
    free_list_.push_back(static_cast<Pfn>(i));
  }
  stats_.total_frames = frames;
}

Result<Pfn> PhysMem::alloc_frame() {
  ++stats_.alloc_calls;
  if (free_list_.empty()) return Errno::kENOMEM;
  Pfn pfn = free_list_.back();
  free_list_.pop_back();
  allocated_[pfn] = true;
  ++stats_.allocated_frames;
  if (stats_.allocated_frames > stats_.peak_allocated) {
    stats_.peak_allocated = stats_.allocated_frames;
  }
  std::memset(frame_data(pfn), 0, kPageSize);
  return pfn;
}

Result<Pfn> PhysMem::alloc_contiguous(std::size_t count) {
  ++stats_.alloc_calls;
  if (count == 0) return Errno::kEINVAL;
  if (count == 1) {
    --stats_.alloc_calls;  // alloc_frame() counts itself
    return alloc_frame();
  }
  std::size_t run = 0;
  for (std::size_t i = 0; i < allocated_.size(); ++i) {
    run = allocated_[i] ? 0 : run + 1;
    if (run == count) {
      std::size_t first = i + 1 - count;
      for (std::size_t j = first; j <= i; ++j) {
        allocated_[j] = true;
        std::memset(backing_.get() + j * kPageSize, 0, kPageSize);
      }
      // Rebuild the free list without the claimed frames.
      std::erase_if(free_list_, [&](Pfn p) {
        return p >= first && p <= i;
      });
      stats_.allocated_frames += count;
      if (stats_.allocated_frames > stats_.peak_allocated) {
        stats_.peak_allocated = stats_.allocated_frames;
      }
      return static_cast<Pfn>(first);
    }
  }
  return Errno::kENOMEM;
}

void PhysMem::free_contiguous(Pfn first, std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    free_frame(static_cast<Pfn>(first + j));
  }
}

void PhysMem::free_frame(Pfn pfn) {
  assert(pfn < allocated_.size() && allocated_[pfn] && "double free of frame");
  ++stats_.free_calls;
  allocated_[pfn] = false;
  --stats_.allocated_frames;
  std::memset(frame_data(pfn), 0x5a, kPageSize);
  free_list_.push_back(pfn);
}

std::byte* PhysMem::frame_data(Pfn pfn) {
  assert(pfn < allocated_.size());
  return backing_.get() + static_cast<std::size_t>(pfn) * kPageSize;
}

const std::byte* PhysMem::frame_data(Pfn pfn) const {
  assert(pfn < allocated_.size());
  return backing_.get() + static_cast<std::size_t>(pfn) * kPageSize;
}

bool PhysMem::is_allocated(Pfn pfn) const {
  return pfn < allocated_.size() && allocated_[pfn];
}

}  // namespace usk::vm
