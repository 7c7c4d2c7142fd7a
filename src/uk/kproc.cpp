#include "uk/kproc.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "base/appendf.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "fs/vfs.hpp"
#include "mm/kmalloc.hpp"
#include "trace/ktrace.hpp"
#include "trace/span.hpp"
#include "uk/audit.hpp"
#include "uk/kernel.hpp"

namespace usk::uk {

using base::appendf;

namespace {

const char* state_name(sched::TaskState s) {
  switch (s) {
    case sched::TaskState::kRunnable: return "runnable";
    case sched::TaskState::kRunning: return "running";
    case sched::TaskState::kParked: return "parked";
    case sched::TaskState::kExited: return "exited";
    case sched::TaskState::kKilled: return "killed";
  }
  return "?";
}

/// One histogram as text: header line, then one `[lo, hi) count #bar`
/// line per occupied bucket (the bpftrace / bcc "hist()" rendering).
void append_hist(std::string& out, const trace::HistogramSnapshot& h) {
  appendf(out,
          "count %" PRIu64 " avg_ns %" PRIu64 " p50_ns %" PRIu64
          " p99_ns %" PRIu64 " max_ns %" PRIu64 "\n",
          h.count, h.avg(), h.percentile(50.0), h.percentile(99.0), h.max);
  std::uint64_t peak = 0;
  for (std::uint64_t b : h.buckets) peak = std::max(peak, b);
  for (std::size_t i = 0; i < trace::HistogramSnapshot::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    int stars = peak == 0 ? 0
                          : static_cast<int>((h.buckets[i] * 40 + peak - 1) /
                                             peak);
    appendf(out, "  [%" PRIu64 ", %" PRIu64 "] %" PRIu64 " |%.*s|\n",
            trace::HistogramSnapshot::bucket_lo(i),
            trace::HistogramSnapshot::bucket_hi(i), h.buckets[i], stars,
            "****************************************");
  }
}

constexpr std::size_t kSysCount = static_cast<std::size_t>(Sys::kMaxSys);

/// A 0|1 control file: reads `get()`, and a write of "1" or "0" (trailing
/// whitespace allowed, as `echo` adds) calls `set(bool)`.
template <class Get, class Set>
void add_switch(fs::ProcFs& pfs, const char* path, Get get, Set set) {
  pfs.add_file(
      path, [get] { return std::string(get() ? "1\n" : "0\n"); },
      [set](std::string_view in) {
        const std::size_t end = in.find_last_not_of(" \t\n");
        if (end == std::string_view::npos) return Errno::kEINVAL;
        const std::string_view v = in.substr(0, end + 1);
        if (v != "1" && v != "0") return Errno::kEINVAL;
        set(v == "1");
        return Errno::kOk;
      });
}

/// One unlabelled gauge, on a ProcFs or a Registration, from any callable
/// returning an integer.
template <class To, class Fn>
void gauge(To& to, const char* name, const char* help, Fn fn) {
  to.add_gauges(name, help, nullptr, [fn] {
    return fs::ProcFs::Rows<std::int64_t>{
        {std::string(), static_cast<std::int64_t>(fn())}};
  });
}

}  // namespace

void register_kernel_proc(Kernel& k, fs::ProcFs& pfs) {
  pfs.add_file("/self/stat", [&k] {
    std::string out;
    sched::Task* t = k.scheduler().current();
    if (t == nullptr) return std::string("no current task\n");
    appendf(out, "pid %u\nname %s\nstate %s\n", t->pid(), t->name().c_str(),
            state_name(t->state()));
    appendf(out, "syscalls %" PRIu64 "\npreemptions %" PRIu64 "\n",
            t->syscalls, t->preemptions);
    appendf(out,
            "user_units %" PRIu64 "\nkernel_units %" PRIu64
            "\nkernel_wall_ns %" PRIu64 "\n",
            t->times().user, t->times().kernel, t->kernel_wall_ns);
    appendf(out, "bytes_from_user %" PRIu64 "\nbytes_to_user %" PRIu64 "\n",
            t->bytes_from_user, t->bytes_to_user);
    return out;
  });

  pfs.add_file("/vfs/stats", [&k] {
    const fs::VfsStats& s = k.vfs().stats();
    std::string out;
    appendf(out, "opens %" PRIu64 "\ncloses %" PRIu64 "\nreads %" PRIu64 "\n",
            s.opens.load(), s.closes.load(), s.reads.load());
    appendf(out, "writes %" PRIu64 "\nstats %" PRIu64 "\n", s.writes.load(),
            s.stats_.load());
    appendf(out,
            "path_components %" PRIu64 "\nmount_crossings %" PRIu64 "\n",
            s.path_components.load(), s.mount_crossings.load());
    return out;
  });

  pfs.add_file("/vfs/dcache", [&k] {
    fs::DcacheStats s = k.vfs().dcache().stats();
    std::string out;
    appendf(out, "lookups %" PRIu64 "\nhits %" PRIu64 "\nmisses %" PRIu64 "\n",
            s.lookups, s.hits, s.lookups - s.hits);
    appendf(out,
            "inserts %" PRIu64 "\ninvalidations %" PRIu64
            "\nevictions %" PRIu64 "\n",
            s.inserts, s.invalidations, s.evictions);
    return out;
  });

  pfs.add_file("/kernel/boundary", [&k] {
    BoundaryStats s = k.boundary().stats();
    std::string out;
    appendf(out, "crossings %" PRIu64 "\n", s.crossings);
    appendf(out,
            "copies_from_user %" PRIu64 "\ncopies_to_user %" PRIu64 "\n",
            s.copies_from_user, s.copies_to_user);
    appendf(out, "bytes_from_user %" PRIu64 "\nbytes_to_user %" PRIu64 "\n",
            s.bytes_from_user, s.bytes_to_user);
    return out;
  });

  pfs.add_file("/kernel/ratelimits", [] {
    std::string out;
    appendf(out, "# site suppressed\n");
    for (const auto& s : base::klog_ratelimits().report()) {
      appendf(out, "%s %" PRIu64 "\n", s.name.c_str(), s.suppressed);
    }
    return out;
  });

  pfs.add_file("/mm/kmalloc", [&k] {
    const mm::AllocatorStats& s = k.kmalloc().stats();
    std::string out;
    appendf(out,
            "alloc_calls %" PRIu64 "\nfree_calls %" PRIu64
            "\nfailed_allocs %" PRIu64 "\n",
            s.alloc_calls, s.free_calls, s.failed_allocs);
    appendf(out,
            "bytes_requested %" PRIu64 "\noutstanding_allocs %" PRIu64
            "\noutstanding_bytes %" PRIu64 "\n",
            s.bytes_requested, s.outstanding_allocs, s.outstanding_bytes);
    return out;
  });

  pfs.add_file("/sched/stats", [&k] {
    const sched::SchedStats& s = k.scheduler().stats();
    const sched::WaitStats& w = sched::waitqueue_stats();
    std::string out;
    appendf(out,
            "tasks %zu\npreempt_points %" PRIu64 "\nschedules %" PRIu64
            "\nwatchdog_kills %" PRIu64 "\n",
            k.scheduler().task_count(), s.preempt_points.load(),
            s.schedules.load(), s.watchdog_kills.load());
    appendf(out,
            "enqueues %" PRIu64 "\npicks %" PRIu64 "\nsteals %" PRIu64
            "\nsteal_misses %" PRIu64 "\nmigrations %" PRIu64
            "\nyields %" PRIu64 "\nparks %" PRIu64 "\nkills %" PRIu64 "\n",
            s.enqueues.load(), s.picks.load(), s.steals.load(),
            s.steal_misses.load(), s.migrations.load(), s.yields.load(),
            s.parks.load(), s.kills.load());
    appendf(out,
            "wait_parks %" PRIu64 "\nwait_wakeups %" PRIu64
            "\nwait_stale_tokens %" PRIu64 "\nwait_kills %" PRIu64
            "\nwait_timeouts %" PRIu64 "\nparked_now %" PRId64 "\n",
            w.parks.load(), w.wakeups.load(), w.stale_tokens.load(),
            w.kills_while_parked.load(), w.timeouts.load(),
            w.parked_now.load());
    return out;
  });

  // Per-CPU runqueue view: one row per runqueue that has seen any
  // traffic (64 all-zero rows would drown the signal in ktop).
  pfs.add_file("/sched/runqueues", [&k] {
    std::string out;
    appendf(out, "# cpu depth current pushes stolen_from steals "
                 "migrations_in picks\n");
    for (const sched::Scheduler::CpuSnapshot& c :
         k.scheduler().snapshot_cpus()) {
      if (c.pushes == 0 && c.picks == 0 && c.steals == 0 &&
          c.current_pid == 0 && c.depth == 0) {
        continue;
      }
      appendf(out,
              "%zu %zu %u %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 "\n",
              c.cpu, c.depth, c.current_pid, c.pushes, c.stolen_from,
              c.steals, c.migrations_in, c.picks);
    }
    return out;
  });

  // --- tracing control + views ----------------------------------------------
  trace::Ktrace& kt = k.ktrace();
  add_switch(pfs, "/trace/enable", [&kt] { return kt.is_enabled(); },
             [&kt](bool on) { kt.set_enabled(on); });

  auto trace_totals = [&kt] {
    std::string out;
    appendf(out, "enabled %d\nemitted %" PRIu64 "\ndropped %" PRIu64 "\n",
            kt.is_enabled() ? 1 : 0, kt.emitted(), kt.dropped());
    return out;
  };
  pfs.add_file("/trace/events", [&kt, trace_totals] {
    std::string out = trace_totals();
    for (const trace::SiteInfo& s : kt.sites()) {
      appendf(out, "%s:%s %" PRIu64 "\n", s.subsys, s.name, s.hits);
    }
    return out;
  });

  pfs.add_file("/trace/hist/syscall", [&k] {
    std::string out;
    for (std::size_t nr = 0; nr < kSysCount; ++nr) {
      const trace::HistogramSnapshot h =
          k.syscall_latency(static_cast<Sys>(nr));
      if (h.count == 0) continue;
      appendf(out, "%s ", sys_name(static_cast<Sys>(nr)));
      append_hist(out, h);
    }
    return out;
  });

  pfs.add_file("/trace/hist/ops", [&kt] {
    std::string out;
    for (const trace::OpHistInfo& o : kt.op_hists()) {
      if (o.hist.count == 0) continue;
      appendf(out, "%s:%s ", o.subsys, o.name);
      append_hist(out, o.hist);
    }
    return out;
  });

  // Ring accounting: totals plus one row per CPU that has emitted, so a
  // wraparound on one hot CPU is visible even when the totals look tame.
  pfs.add_file("/trace/stats", [&kt, trace_totals] {
    std::string out = trace_totals();
    appendf(out, "# cpu emitted dropped capacity\n");
    for (const auto& c : kt.per_cpu_stats()) {
      appendf(out, "%zu %" PRIu64 " %" PRIu64 " %zu\n", c.cpu, c.emitted,
              c.dropped, c.capacity);
    }
    return out;
  });

  // --- spans ----------------------------------------------------------------
  trace::Kspan& ks = k.kspan();
  add_switch(pfs, "/span/enable", [&ks] { return ks.is_enabled(); },
             [&ks](bool on) { ks.set_enabled(on); });

  pfs.add_file("/span/stats", [&ks] {
    const trace::SpanStats s = ks.stats();
    std::string out;
    appendf(out,
            "enabled %d\nstarted %" PRIu64 "\nfinished %" PRIu64
            "\ndropped %" PRIu64 "\nactive %" PRIu64 "\n",
            ks.is_enabled() ? 1 : 0, s.started, s.finished, s.dropped,
            s.active);
    return out;
  });

  pfs.add_file("/span/spans", [&ks] {
    std::string out;
    appendf(out,
            "# id parent pid ext vehicle name dur_ns crossings bytes_in "
            "bytes_out kernel_units status\n");
    for (const trace::SpanRecord& s : ks.snapshot()) {
      appendf(out,
              "%" PRIu64 " %" PRIu64 " %u %d %s %s %" PRIu64 " %" PRIu64
              " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRId64 "\n",
              s.id, s.parent, s.pid, s.ext,
              trace::span_vehicle_name(s.vehicle), s.name,
              s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0,
              s.crossings, s.bytes_in, s.bytes_out, s.kernel_units,
              s.status);
    }
    return out;
  });

  // --- metrics ---------------------------------------------------------------
  // /metrics renders this ProcFs's metric families. The gauges bridge
  // counters other subsystems own; they live with this ProcFs, so each
  // Kernel's scrape reads its own values.
  gauge(pfs, "usk_trace_events_emitted", "ktrace events emitted since reset",
        [&kt] { return kt.emitted(); });
  gauge(pfs, "usk_trace_events_dropped",
        "ktrace events lost to full per-CPU rings",
        [&kt] { return kt.dropped(); });
  gauge(pfs, "usk_sched_steals", "runqueue picks served by work stealing",
        [&k] { return k.scheduler().stats().steals.load(); });
  gauge(pfs, "usk_sched_migrations",
        "tasks entered on a CPU other than their last",
        [&k] { return k.scheduler().stats().migrations.load(); });
  gauge(pfs, "usk_sched_wakeups", "WaitQueue wake_one/wake_all calls",
        [] { return sched::waitqueue_stats().wakeups.load(); });
  gauge(pfs, "usk_sched_parks", "tasks parked on WaitQueues (cumulative)",
        [] { return sched::waitqueue_stats().parks.load(); });
  gauge(pfs, "usk_sched_parked_tasks", "tasks parked on WaitQueues right now",
        [] { return sched::waitqueue_stats().parked_now.load(); });
  gauge(pfs, "usk_sched_wait_timeouts",
        "parked waits ended by a user-requested deadline",
        [] { return sched::waitqueue_stats().timeouts.load(); });
  gauge(pfs, "usk_spans_started", "spans opened since reset",
        [&ks] { return ks.stats().started; });
  gauge(pfs, "usk_spans_dropped", "finished spans evicted from the store",
        [&ks] { return ks.stats().dropped; });
  // --- /proc/dl: deadlines, cancellation, admission (dl/dl.hpp) -------------
  dl::Kdl& kdl = k.dl();
  add_switch(pfs, "/dl/enable", [&kdl] { return kdl.enabled(); },
             [&kdl](bool on) { kdl.set_enabled(on); });
  pfs.add_file(
      "/dl/stats", [&kdl] { return kdl.format_stats(); },
      [&kdl](std::string_view) {
        kdl.reset();
        return Errno::kOk;
      });
  pfs.add_file("/dl/tenants", [&kdl] { return kdl.format_tenants(); });

  gauge(pfs, "usk_dl_active",
        "live DeadlineScopes (requests in flight under kdl)",
        [&kdl] { return kdl.stats().active.load(); });
  gauge(pfs, "usk_dl_expired", "requests retired past their deadline",
        [&kdl] { return kdl.stats().retired_expired.load(); });
  gauge(pfs, "usk_dl_canceled", "requests retired by cooperative cancel",
        [&kdl] { return kdl.stats().retired_canceled.load(); });
  gauge(pfs, "usk_dl_sheds", "requests shed by admission control",
        [&kdl] { return kdl.stats().sheds.load(); });
  gauge(pfs, "usk_dl_gateway_failfast",
        "syscalls refused at the gateway (expired + canceled)", [&kdl] {
          return kdl.stats().gateway_expired.load() +
                 kdl.stats().gateway_canceled.load();
        });

  // Computed from the same per-Kernel histograms /proc/trace/hist/syscall
  // renders, so the two surfaces agree.
  pfs.add_summary("usk_syscall_latency_ns",
                  "syscall wall latency (log2 histograms)", "syscall", [&k] {
                    fs::ProcFs::Rows<trace::HistogramSnapshot> rows;
                    for (std::size_t nr = 0; nr < kSysCount; ++nr) {
                      const auto sys = static_cast<Sys>(nr);
                      trace::HistogramSnapshot h = k.syscall_latency(sys);
                      if (h.count != 0) rows.emplace_back(sys_name(sys), h);
                    }
                    return rows;
                  });
  pfs.add_file("/metrics", [&pfs] { return pfs.expose_metrics(); });

  // --- /proc/fail: this Kernel's fault injector (see fault/kfail.hpp) ----
  // Reading /proc/fail/spec shows the armed configuration; writing a spec
  // string ("kmalloc:p=0.01:transient", "off", ...) applies it live.
  fault::Kfail& kf = k.kfail();
  pfs.add_file(
      "/fail/spec", [&kf] { return kf.format_spec(); },
      [&kf](std::string_view in) {
        // Trim the trailing newline an `echo >` writer appends.
        while (!in.empty() && (in.back() == '\n' || in.back() == ' ')) {
          in.remove_suffix(1);
        }
        Result<void> r = kf.apply_spec(in);
        return r.ok() ? Errno::kOk : r.error();
      });
  pfs.add_file("/fail/stats", [&kf] { return kf.format_stats(); },
               [&kf](std::string_view) {
                 kf.reset_stats();
                 return Errno::kOk;
               });
  pfs.add_file(
      "/fail/seed",
      [&kf] {
        std::string out;
        appendf(out, "%" PRIu64 "\n", kf.seed());
        return out;
      },
      [&kf](std::string_view in) {
        std::uint64_t seed = 0;
        bool any = false;
        for (char ch : in) {
          if (ch < '0' || ch > '9') break;
          seed = seed * 10 + static_cast<std::uint64_t>(ch - '0');
          any = true;
        }
        if (!any) return Errno::kEINVAL;
        kf.set_seed(seed);
        return Errno::kOk;
      });
}

fs::ProcFs::Registration register_storage_proc(
    fs::ProcFs& pfs, store::Store* store, blockdev::BufferCache* cache) {
  fs::ProcFs::Registration reg(pfs);
  if (cache != nullptr) {
    reg.add_file("/blockdev/cache", [cache] {
      const blockdev::CacheStats s = cache->stats();
      std::string out;
      appendf(out,
              "lookups %" PRIu64 "\nhits %" PRIu64 "\nmisses %" PRIu64 "\n",
              s.lookups, s.hits, s.misses);
      appendf(out, "hit_rate_pct %" PRIu64 "\n",
              static_cast<std::uint64_t>(s.hit_rate() * 100.0));
      appendf(out,
              "writebacks %" PRIu64 "\nbg_writebacks %" PRIu64
              "\nevictions %" PRIu64 "\ngate_rejects %" PRIu64 "\n",
              s.writebacks, s.bg_writebacks, s.evictions, s.gate_rejects);
      appendf(out, "cached %zu\ndirty %zu\ncapacity %zu\nflusher %d\n",
              cache->size(), cache->dirty_count(), cache->capacity(),
              cache->writeback_running() ? 1 : 0);
      return out;
    });
    gauge(reg, "usk_cache_hits", "buffer cache lookup hits",
          [cache] { return cache->stats().hits; });
    gauge(reg, "usk_cache_misses", "buffer cache lookup misses",
          [cache] { return cache->stats().misses; });
    gauge(reg, "usk_cache_writebacks", "dirty blocks written back",
          [cache] { return cache->stats().writebacks; });
    gauge(reg, "usk_cache_bg_writebacks", "writebacks by the flusher thread",
          [cache] { return cache->stats().bg_writebacks; });
    gauge(reg, "usk_cache_dirty_blocks", "currently dirty cached blocks",
          [cache] { return cache->dirty_count(); });
    gauge(reg, "usk_cache_gate_rejects", "writes refused by the dirty gate",
          [cache] { return cache->stats().gate_rejects; });
  }
  if (store == nullptr) return reg;

  reg.add_file("/store/stats", [store] {
    const store::StoreStats ss = store->stats();
    const store::ImageStats is = store->image().stats();
    std::string out;
    appendf(out,
            "checkpoints %" PRIu64 "\nenospc_retries %" PRIu64
            "\nrecoveries %" PRIu64 "\nstable_seq %" PRIu64 "\n",
            ss.checkpoints, ss.enospc_retries, ss.recoveries,
            store->stable_seq());
    appendf(out,
            "image_preads %" PRIu64 "\nimage_pwrites %" PRIu64
            "\nimage_fsyncs %" PRIu64 "\n",
            is.preads, is.pwrites, is.fsyncs);
    appendf(out, "image_bytes_read %" PRIu64 "\nimage_bytes_written %" PRIu64 "\n",
            is.bytes_read, is.bytes_written);
    appendf(out, "short_writes %" PRIu64 "\nfsync_failures %" PRIu64 "\n",
            is.short_writes, is.fsync_failures);
    return out;
  });

  reg.add_file("/store/journal", [store] {
    std::string out;
    store::GroupCommitJournal* j = store->journal();
    if (j == nullptr) return std::string("no journal\n");
    const store::JournalStats s = j->stats();
    appendf(out,
            "txns_committed %" PRIu64 "\ncommit_units %" PRIu64
            "\nrecords_written %" PRIu64 "\nbytes_written %" PRIu64 "\n",
            s.txns_committed, s.commit_units, s.records_written,
            s.bytes_written);
    appendf(out,
            "max_batch_txns %" PRIu64 "\ntorn_headers %" PRIu64
            "\ntorn_payloads %" PRIu64 "\nresets %" PRIu64
            "\nenospc_batches %" PRIu64 "\n",
            s.max_batch_txns, s.torn_headers, s.torn_payloads, s.resets,
            s.enospc_batches);
    appendf(out, "txns_per_flush_x100 %" PRIu64 "\n",
            static_cast<std::uint64_t>(s.txns_per_flush() * 100.0));
    appendf(out, "tail_bytes %" PRIu64 "\nregion_bytes %" PRIu64 "\n",
            j->tail_bytes(), j->region_bytes());
    return out;
  });

  gauge(reg, "usk_store_checkpoints", "store checkpoints completed",
        [store] { return store->stats().checkpoints; });
  gauge(reg, "usk_store_stable_seq", "last checkpointed commit-unit seq",
        [store] { return store->stable_seq(); });
  gauge(reg, "usk_store_image_fsyncs", "backing-image fsync calls",
        [store] { return store->image().stats().fsyncs; });
  // Journal counters; a store without a journal reads 0.
  const auto journal = [store](auto field) {
    return [store, field] {
      store::GroupCommitJournal* j = store->journal();
      return j != nullptr ? field(j->stats()) : 0;
    };
  };
  gauge(reg, "usk_journal_commit_units", "group-commit units written (fsyncs)",
        journal([](const store::JournalStats& s) {
          return static_cast<std::int64_t>(s.commit_units);
        }));
  gauge(reg, "usk_journal_txns_committed", "transactions made durable",
        journal([](const store::JournalStats& s) {
          return static_cast<std::int64_t>(s.txns_committed);
        }));
  gauge(reg, "usk_journal_txns_per_flush_x100",
        "group-commit amortization (txns per fsync, x100)",
        journal([](const store::JournalStats& s) {
          return static_cast<std::int64_t>(s.txns_per_flush() * 100.0);
        }));
  return reg;
}

}  // namespace usk::uk
