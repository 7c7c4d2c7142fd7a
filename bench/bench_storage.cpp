// S1: the persistent storage tier's two headline numbers.
//
// S1a -- group-commit amortization. 8 concurrent writers commit small
// transactions through the store's journal. In per-update mode every
// transaction pays its own commit unit + fsync (commits-per-flush == 1
// by construction); with group commit the leader batches every queued
// transaction into ONE unit closed by ONE fsync. The acceptance metric
// is journal transactions per flush at 8 writers:
//
//     commits-per-flush-8w >= 3.0        (check_bench_json --expect-min)
//
// S1b -- PostMark-style cost of persistence. The same seeded
// PostMark-ish workload (file pool, read/append transactions, occasional
// delete+create churn) runs twice on JournalFs: once purely in memory
// (the in-memory journal, io cost model attached), once with the
// persistent store attached -- real backing image, real fsyncs,
// writeback page cache, ext3-style batched commits. The in-memory side
// pays no durability cost at all (no image write, no fsync), so the
// slowdown is reported as a measurement, not gated:
//
//     postmark-store-slowdown-x100       (recorded, unbounded)
//
// Usage: bench_storage [--quick]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "fs/journalfs.hpp"
#include "store/store.hpp"

namespace usk {
namespace {

using JFs = fs::JournalFs<fs::RawPtrPolicy>;

// --- S1a: group commit at 8 writers -------------------------------------------

struct CommitOut {
  double txns_per_sec = 0;
  double txns_per_flush = 0;
  double elapsed = 0;
};

CommitOut run_commit(bool group, int threads, int txns_per_thread,
                     const char* path) {
  std::remove(path);
  store::StoreConfig cfg;
  cfg.data_blocks = 64;
  cfg.journal_blocks = 1024;
  cfg.journal.group_commit = group;
  cfg.journal.leader_wait_us = group ? 200 : 0;
  store::Store st;
  if (!st.open(path, cfg).ok()) return {};

  std::atomic<int> failures{0};
  CommitOut out;
  out.elapsed = bench::time_once([&] {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&st, &failures, t, txns_per_thread] {
        std::uint8_t payload[256];
        for (int i = 0; i < txns_per_thread; ++i) {
          std::memset(payload, t * 131 + i, sizeof(payload));
          store::JTxn txn = st.begin_txn();
          txn.append(1, std::uint32_t(t * 100000 + i), payload,
                     sizeof(payload));
          if (!st.commit_txn(std::move(txn)).ok()) ++failures;
        }
      });
    }
    for (auto& t : ts) t.join();
  });
  store::JournalStats js = st.journal()->stats();
  out.txns_per_flush = js.txns_per_flush();
  out.txns_per_sec =
      failures.load() == 0 && out.elapsed > 0
          ? double(threads) * txns_per_thread / out.elapsed
          : 0;
  st.close();
  std::remove(path);
  return out;
}

// --- S1b: PostMark-ish workload -----------------------------------------------

constexpr std::size_t kInodes = 256;
constexpr std::size_t kFsBlocks = 2048;
constexpr std::size_t kJournalSlots = 4096;
constexpr std::size_t kCommitInterval = 256;

/// Seeded LCG so both runs see the identical op sequence.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
  std::uint64_t pick(std::uint64_t n) { return (next() >> 33) % n; }
};

/// PostMark shape: a pool of files, then transactions that read or append
/// a random pool member, with delete+create churn sprinkled in.
double run_postmark(JFs& jfs, int files, int txns) {
  Rng rng{0x90517};
  std::vector<fs::InodeNum> pool(files, 0);
  std::vector<std::byte> buf(8192);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 11);
  }
  auto name = [](int i) { return "pm" + std::to_string(i); };
  for (int i = 0; i < files; ++i) {
    auto ino = jfs.create(jfs.root(), name(i), fs::FileType::kRegular, 0644);
    if (!ino.ok()) return -1;
    pool[i] = ino.value();
    std::span<const std::byte> init(buf.data(), 512 + rng.pick(3584));
    if (!jfs.write(pool[i], 0, init).ok()) return -1;
  }
  if (!jfs.sync().ok()) return -1;

  return bench::time_once([&] {
    for (int t = 0; t < txns; ++t) {
      const int i = int(rng.pick(std::uint64_t(files)));
      if (t % 20 == 19) {
        // Churn: delete one file, recreate it empty.
        (void)jfs.unlink(jfs.root(), name(i));
        auto ino =
            jfs.create(jfs.root(), name(i), fs::FileType::kRegular, 0644);
        if (ino.ok()) pool[i] = ino.value();
        continue;
      }
      fs::StatBuf stt{};
      if (!jfs.getattr(pool[i], &stt).ok()) continue;
      if (rng.pick(2) == 0) {
        std::span<std::byte> out(buf.data(),
                                 std::min<std::uint64_t>(stt.size, 4096));
        (void)jfs.read(pool[i], 0, out);
      } else {
        std::span<const std::byte> in(buf.data(), 512 + rng.pick(1536));
        std::uint64_t off = std::min<std::uint64_t>(stt.size, 90 * 1024);
        (void)jfs.write(pool[i], off, in);
      }
    }
    (void)jfs.sync();
  });
}

}  // namespace
}  // namespace usk

int main(int argc, char** argv) {
  using namespace usk;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::JsonWriter json("bench_storage");

  bench::print_title("S1a", "group commit: concurrent writers share one fsync");
  const int txns = quick ? 200 : 600;
  const bench::TempDir tmp;
  CommitOut per_upd = run_commit(false, 8, quick ? 25 : 60,
                                 tmp.file("perupd.img").c_str());
  CommitOut grouped =
      run_commit(true, 8, txns, tmp.file("group.img").c_str());
  std::printf("  %-28s %12s %16s\n", "config", "txns/sec", "txns per flush");
  std::printf("  %-28s %12.0f %16.2f\n", "per-update commit (8w)",
              per_upd.txns_per_sec, per_upd.txns_per_flush);
  std::printf("  %-28s %12.0f %16.2f\n", "group commit (8w)",
              grouped.txns_per_sec, grouped.txns_per_flush);
  bench::print_note("acceptance: commits-per-flush-8w >= 3.0");
  json.record("per-update-txns-per-sec", 8, per_upd.txns_per_sec,
              per_upd.elapsed);
  json.record("group-txns-per-sec", 8, grouped.txns_per_sec, grouped.elapsed);
  json.record("commits-per-flush-8w", 8, grouped.txns_per_flush,
              grouped.elapsed);

  bench::print_title("S1b", "PostMark-style: store-attached vs in-memory");
  const int pm_files = quick ? 48 : 96;
  const int pm_txns = quick ? 1200 : 4000;
  const int pm_reps = 5;  // interleaved min-of-N: the timed region is
                          // tens of ms, so scheduler noise on a small box
                          // dwarfs the store's real cost; alternating the
                          // two sides makes a load spike hit both, and the
                          // per-side min is the honest read
  const std::string pm_img = tmp.file("pm.img");
  const char* img = pm_img.c_str();

  // Baseline: the in-memory journal with the io cost model attached.
  // Fresh stack per rep -- run_postmark creates the pool from scratch.
  auto base_rep = [&]() -> double {
    blockdev::Disk disk(8192);
    blockdev::BufferCache cache(disk, 3072);
    JFs jfs(kInodes, kFsBlocks, kJournalSlots, kCommitInterval);
    jfs.set_io_model(&cache);
    return run_postmark(jfs, pm_files, pm_txns);
  };
  // Store-attached: real image, real fsyncs, batched commits.
  auto store_rep = [&](bool report) -> double {
    std::remove(img);
    blockdev::Disk disk(8192);
    blockdev::BufferCache cache(disk, 3072);
    store::StoreConfig cfg;
    cfg.data_blocks = 2112;    // inode table + bitmap + kFsBlocks, rounded
    cfg.journal_blocks = 2048;  // roomy: no forced mid-run checkpoints
    store::Store st;
    if (!st.open(img, cfg).ok()) return -1;
    JFs jfs(kInodes, kFsBlocks, kJournalSlots, kCommitInterval);
    if (!jfs.attach_store(&st, &cache).ok()) return -1;
    double s = run_postmark(jfs, pm_files, pm_txns);
    if (report) {
      store::ImageStats is = st.image().stats();
      store::JournalStats js = st.journal()->stats();
      std::printf(
          "  store i/o: %llu fsyncs, %llu pwrites, %.1f MiB written, "
          "%llu commit units / %llu txns, %llu recs, %llu home writes\n",
          (unsigned long long)is.fsyncs, (unsigned long long)is.pwrites,
          double(is.bytes_written) / (1024.0 * 1024.0),
          (unsigned long long)js.commit_units,
          (unsigned long long)js.txns_committed,
          (unsigned long long)js.records_written,
          (unsigned long long)jfs.jstats().store_home_writes);
    }
    st.close();
    return s;
  };
  (void)base_rep();        // warm the page cache / allocator once,
  (void)store_rep(false);  // untimed, before any rep counts
  double base_s = -1, store_s = -1;
  for (int r = 0; r < pm_reps; ++r) {
    double b = base_rep();
    double s = store_rep(r == pm_reps - 1);
    if (b <= 0 || s <= 0) { base_s = store_s = -1; break; }
    if (base_s < 0 || b < base_s) base_s = b;
    if (store_s < 0 || s < store_s) store_s = s;
  }
  std::remove(img);
  if (base_s <= 0 || store_s <= 0) {
    std::fprintf(stderr, "bench_storage: postmark run failed\n");
    return 1;
  }
  const double slow = bench::slowdown(base_s, store_s);
  std::printf("  %-28s %12s %12s\n", "config", "txns/sec", "seconds");
  std::printf("  %-28s %12.0f %12.4f\n", "in-memory journalfs",
              pm_txns / base_s, base_s);
  std::printf("  %-28s %12.0f %12.4f\n", "store-attached journalfs",
              pm_txns / store_s, store_s);
  std::printf("  slowdown: %.3fx\n", slow);
  json.record("postmark-memory-txns-per-sec", 1, pm_txns / base_s, base_s);
  json.record("postmark-store-txns-per-sec", 1, pm_txns / store_s, store_s);
  json.record("postmark-store-slowdown-x100", 1, slow * 100.0, store_s);
  return 0;
}
