// Kernel /proc registration: maps kernel state onto ProcFs files.
//
// register_kernel_proc() installs the standard tree:
//
//   /self/stat           current task: pid, state, syscalls, times
//   /vfs/stats           VFS operation counters
//   /vfs/dcache          dcache hit/miss/eviction counters
//   /kernel/boundary     crossing + copy-byte counters
//   /mm/kmalloc          allocator counters
//   /sched/stats         preemption/schedule/watchdog counters
//   /trace/enable        0|1; writable -- echo 1 > /proc/trace/enable
//   /trace/events        registered tracepoint sites with hit counts
//   /trace/hist/syscall  per-syscall log2 latency histograms
//   /trace/hist/ops      per-operation (vfs:open, ...) latency histograms
//
// Everything is rendered live at open() time from the Kernel the file was
// registered against; Kernel::mount_procfs() grafts the result at /proc.
#pragma once

#include "blockdev/buffer_cache.hpp"
#include "fs/procfs.hpp"
#include "store/store.hpp"

namespace usk::uk {

class Kernel;

/// Populate `pfs` with the standard kernel proc tree backed by `k`. The
/// entries stay with `pfs`, which `k` owns.
void register_kernel_proc(Kernel& k, fs::ProcFs& pfs);

/// Storage-tier proc tree (PR-8), for kernels with a persistent store:
///
///   /blockdev/cache   page-cache counters: hits, misses, writebacks,
///                     dirty count, gate rejects, hit rate
///   /store/stats      store + backing-image counters, stable seq
///   /store/journal    group-commit journal counters, txns/flush, tail
///
/// Also adds the same counters to `pfs`'s /metrics gauges (usk_cache_*,
/// usk_store_*, usk_journal_*). `store` may be null (cache-only setups
/// register /blockdev/cache alone). The entries leave with the returned
/// Registration, which the caller destroys before the store and cache.
fs::ProcFs::Registration register_storage_proc(
    fs::ProcFs& pfs, store::Store* store, blockdev::BufferCache* cache);

}  // namespace usk::uk
