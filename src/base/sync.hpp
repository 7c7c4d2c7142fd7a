// Simulated kernel synchronization objects with instrumentation hooks.
//
// Every spinlock acquire/release, refcount inc/dec, and semaphore down/up
// can fire a globally registered hook. The event-monitoring framework
// (src/evmon) registers its dispatcher here; when no hook is registered the
// cost is one relaxed atomic load and a predictable branch, which is what
// lets the paper's instrumentation run at a few percent overhead (§3.3).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

namespace usk::base {

/// Event kinds fired by the sync primitives. Values match what an
/// evmon::EventType encodes.
enum class SyncEvent : int {
  kSpinLock = 1,
  kSpinUnlock = 2,
  kRefInc = 3,
  kRefDec = 4,
  kSemDown = 5,
  kSemUp = 6,
  kIrqDisable = 7,
  kIrqEnable = 8,
};

/// Hook signature: the affected kernel object, the event, and the source
/// location that triggered it (paper §3.3: each event records a void*, an
/// event-type integer, and file/line).
using SyncHookFn = void (*)(void* ctx, void* object, SyncEvent ev,
                            const char* file, int line);

/// Global hook registry. A single hook keeps the disabled-path cost at one
/// relaxed load; evmon's dispatcher fans out to many callbacks itself.
class SyncHooks {
 public:
  static void set(SyncHookFn fn, void* ctx) {
    instance().ctx_.store(ctx, std::memory_order_relaxed);
    instance().fn_.store(fn, std::memory_order_release);
  }

  static void reset() { set(nullptr, nullptr); }

  static bool enabled() {
    return instance().fn_.load(std::memory_order_relaxed) != nullptr;
  }

  static void fire(void* object, SyncEvent ev, const char* file, int line) {
    SyncHookFn fn = instance().fn_.load(std::memory_order_acquire);
    if (fn != nullptr) {
      fn(instance().ctx_.load(std::memory_order_relaxed), object, ev, file,
         line);
    }
  }

 private:
  static SyncHooks& instance() {
    static SyncHooks h;
    return h;
  }
  std::atomic<SyncHookFn> fn_{nullptr};
  std::atomic<void*> ctx_{nullptr};
};

/// Spinlock analogous to Linux's spinlock_t (e.g., the dcache_lock the
/// paper instruments). Named so monitors can report which lock misbehaved.
class SpinLock {
 public:
  explicit SpinLock(std::string name = "lock") : name_(std::move(name)) {}

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock(const char* file = "?", int line = 0) {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      if (++spins >= kSpinsBeforeYield) {
        // A real kernel spinlock holder has preemption disabled and keeps
        // running on its own CPU, so waits are bounded by the critical
        // section. On an oversubscribed host the holder may be descheduled
        // mid-hold; yielding donates the waiter's timeslice to it, keeping
        // the wait proportional to the critical section instead of the OS
        // scheduling quantum. Uncontended and short waits never yield.
        std::this_thread::yield();
        spins = 0;
      } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    SyncHooks::fire(this, SyncEvent::kSpinLock, file, line);
  }

  void unlock(const char* file = "?", int line = 0) {
    SyncHooks::fire(this, SyncEvent::kSpinUnlock, file, line);
    flag_.clear(std::memory_order_release);
  }

  [[nodiscard]] bool try_lock(const char* file = "?", int line = 0) {
    if (flag_.test_and_set(std::memory_order_acquire)) return false;
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    SyncHooks::fire(this, SyncEvent::kSpinLock, file, line);
    return true;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t contended_spins() const {
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kSpinsBeforeYield = 64;

  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> contended_{0};
  std::string name_;
};

/// RAII guard recording the acquire site.
class SpinGuard {
 public:
  SpinGuard(SpinLock& l, const char* file = "?", int line = 0)
      : l_(l), file_(file), line_(line) {
    l_.lock(file_, line_);
  }
  ~SpinGuard() { l_.unlock(file_, line_); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& l_;
  const char* file_;
  int line_;
};

// Two-level paste so __LINE__ expands first: every guard gets its own
// name, and two guards in one scope (or nested ones) never collide.
#define USK_CONCAT_IMPL(a, b) a##b
#define USK_CONCAT(a, b) USK_CONCAT_IMPL(a, b)
#define USK_SPIN_GUARD(l)                                      \
  ::usk::base::SpinGuard USK_CONCAT(usk_spin_guard_, __LINE__)( \
      (l), __FILE__, __LINE__)
#define USK_LOCK(l) (l).lock(__FILE__, __LINE__)
#define USK_UNLOCK(l) (l).unlock(__FILE__, __LINE__)

/// A named bank of SpinLocks covering a hash-partitioned structure (the
/// SMP fix for the paper's contended global dcache_lock, §3.3). Every
/// shard is a full instrumented SpinLock -- evmon monitors see per-shard
/// lock/unlock events exactly as they saw the global lock's -- and
/// shards==1 degenerates to the classic single global lock so the paper's
/// configuration stays reproducible.
class ShardedLock {
 public:
  explicit ShardedLock(std::size_t shards, const std::string& name = "lock") {
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<SpinLock>(name));
    }
  }

  /// The shard covering `hash` (callers hash their key).
  [[nodiscard]] SpinLock& shard_for(std::size_t hash) {
    return *shards_[hash % shards_.size()];
  }
  [[nodiscard]] std::size_t shard_index(std::size_t hash) const {
    return hash % shards_.size();
  }
  [[nodiscard]] SpinLock& at(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  [[nodiscard]] std::uint64_t total_acquisitions() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s->acquisitions();
    return sum;
  }
  [[nodiscard]] std::uint64_t total_contended_spins() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s->contended_spins();
    return sum;
  }

 private:
  std::vector<std::unique_ptr<SpinLock>> shards_;
};

/// Reader-writer lock (rwlock_t analogue) for structures whose read path
/// dominates (e.g. the MemFs inode table under metadata workloads). Only
/// counters are kept -- no SyncHooks events, because the hook protocol
/// pairs lock/unlock per object and concurrent readers would interleave
/// the pairs and confuse the lock monitors; the instrumented dcache and
/// kmalloc spinlocks remain the observable objects.
class RwLock {
 public:
  explicit RwLock(std::string name = "rwlock") : name_(std::move(name)) {}

  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock_shared() {
    mu_.lock_shared();
    read_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }
  void unlock_shared() { mu_.unlock_shared(); }
  void lock() {
    mu_.lock();
    write_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }
  void unlock() { mu_.unlock(); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t read_acquisitions() const {
    return read_acquisitions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t write_acquisitions() const {
    return write_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_mutex mu_;
  std::atomic<std::uint64_t> read_acquisitions_{0};
  std::atomic<std::uint64_t> write_acquisitions_{0};
  std::string name_;
};

/// RAII guards for RwLock.
class ReadGuard {
 public:
  explicit ReadGuard(RwLock& l) : l_(l) { l_.lock_shared(); }
  ~ReadGuard() { l_.unlock_shared(); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  RwLock& l_;
};

class WriteGuard {
 public:
  explicit WriteGuard(RwLock& l) : l_(l) { l_.lock(); }
  ~WriteGuard() { l_.unlock(); }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

 private:
  RwLock& l_;
};

/// Reference counter analogous to kref. The paper's monitors verify that
/// increments and decrements are symmetric (§3).
class RefCount {
 public:
  explicit RefCount(std::int64_t initial = 1) : count_(initial) {}

  void inc(const char* file = "?", int line = 0) {
    count_.fetch_add(1, std::memory_order_relaxed);
    SyncHooks::fire(this, SyncEvent::kRefInc, file, line);
  }

  /// Returns true when the count hit zero (object should be freed).
  bool dec(const char* file = "?", int line = 0) {
    std::int64_t v = count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    SyncHooks::fire(this, SyncEvent::kRefDec, file, line);
    return v == 0;
  }

  [[nodiscard]] std::int64_t value() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> count_;
};

#define USK_REF_INC(r) (r).inc(__FILE__, __LINE__)
#define USK_REF_DEC(r) (r).dec(__FILE__, __LINE__)

/// Counting semaphore with the same hook protocol.
class Semaphore {
 public:
  explicit Semaphore(int initial = 1) : count_(initial) {}

  void down(const char* file = "?", int line = 0) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return count_ > 0; });
    --count_;
    SyncHooks::fire(this, SyncEvent::kSemDown, file, line);
  }

  void up(const char* file = "?", int line = 0) {
    {
      std::lock_guard lk(mu_);
      ++count_;
    }
    SyncHooks::fire(this, SyncEvent::kSemUp, file, line);
    cv_.notify_one();
  }

  [[nodiscard]] int value() const {
    std::lock_guard lk(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

/// Simulated IRQ state for the "interrupts disabled are later re-enabled"
/// invariant the paper lists.
class IrqState {
 public:
  void disable(const char* file = "?", int line = 0) {
    depth_.fetch_add(1, std::memory_order_relaxed);
    SyncHooks::fire(this, SyncEvent::kIrqDisable, file, line);
  }
  void enable(const char* file = "?", int line = 0) {
    depth_.fetch_sub(1, std::memory_order_relaxed);
    SyncHooks::fire(this, SyncEvent::kIrqEnable, file, line);
  }
  [[nodiscard]] int depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> depth_{0};
};

}  // namespace usk::base
