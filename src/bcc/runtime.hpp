// The KGCC runtime: bounds checking, pointer validation, malloc/free
// checking, OOB peers, and dynamic deinstrumentation (paper §3.4).
//
// The compiler half of KGCC is replaced by checked_ptr<T> (checked_ptr.hpp)
// which emits exactly the calls a KGCC-instrumented dereference or pointer
// arithmetic would: check_access() before memory operations, check_arith()
// for pointer arithmetic (OOB peer creation), bcc_malloc/bcc_free for heap
// management.
//
// Optimizations reproduced from the paper:
//  * check caching ("common subexpression elimination allowed us to reduce
//    the number of checks inserted by more than half") -- a CheckSite
//    caches the bounds of the last object it validated; repeat hits skip
//    the splay-tree consultation.
//  * dynamic deinstrumentation ("instrumentation that can be deactivated
//    when it has executed a sufficient number of times") -- after a site
//    passes N checks with no error, the site disables itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bcc/object_map.hpp"

namespace usk::bcc {

enum class ErrorKind {
  kUnknownPointer,    ///< access through memory not in the map
  kOutOfBounds,       ///< access past an object's bounds
  kPeerDereference,   ///< dereference of a temporary OOB pointer
  kInvalidFree,       ///< free of a pointer that is not an allocation base
  kDoubleFree,
};

struct BccError {
  ErrorKind kind;
  std::uint64_t addr = 0;
  std::size_t size = 0;
  std::string where;  ///< allocation site of the object, if known
};

/// Per-check-site state: cached bounds + deinstrumentation counter.
struct CheckSite {
  std::uint64_t cached_base = 0;
  std::uint64_t cached_end = 0;
  std::uint64_t clean_checks = 0;
  bool disabled = false;
};

struct RuntimeOptions {
  bool cache_bounds = true;             ///< the CSE analogue
  std::uint64_t deinstrument_after = 0; ///< 0 = never self-disable
  bool collect_errors = true;           ///< store BccError records
};

struct RuntimeStats {
  std::uint64_t checks = 0;         ///< check_access calls (incl. fast path)
  std::uint64_t map_consults = 0;   ///< slow-path splay lookups
  std::uint64_t cache_hits = 0;
  std::uint64_t skipped_disabled = 0;
  std::uint64_t arith_checks = 0;
  std::uint64_t peers_created = 0;
  std::uint64_t errors = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opt = RuntimeOptions{},
                   std::unique_ptr<AddressMap> map = nullptr);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- object registration ----------------------------------------------------
  void* bcc_malloc(std::size_t n, const char* file = "?", int line = 0);
  void bcc_free(void* p);
  /// Register memory owned elsewhere (stack/global objects whose address
  /// is taken -- KGCC skips unaliased stack objects entirely).
  void register_object(const void* p, std::size_t n, const char* file = "?",
                       int line = 0);
  void unregister_object(const void* p);

  // --- checks (what instrumented code calls) --------------------------------
  /// Validate an access of `n` bytes at `p` through `site`. Returns true
  /// if the access is in bounds.
  bool check_access(const void* p, std::size_t n, CheckSite* site);

  /// Pointer arithmetic `base + delta` on a pointer currently inside (or
  /// peer of) some object. Creates/updates OOB peers as the paper
  /// describes. Returns true if the *resulting* pointer is legal to form.
  bool check_arith(const void* from, std::int64_t delta_bytes,
                   const void* result);

  /// Explicit per-site factory so all copies of one logical pointer share
  /// deinstrumentation state.
  CheckSite* make_site();

  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<BccError>& errors() const { return errors_; }
  [[nodiscard]] AddressMap& map() { return *map_; }
  [[nodiscard]] const RuntimeOptions& options() const { return opt_; }
  void clear_errors() { errors_.clear(); }

  /// Process-wide instance used by the BccPtrPolicy (JournalFs builds).
  static Runtime& instance();

 private:
  const MapEntry* owning_object(std::uint64_t addr);
  void report(ErrorKind kind, std::uint64_t addr, std::size_t n,
              const MapEntry* obj);

  const RuntimeOptions opt_;
  std::unique_ptr<AddressMap> map_;
  std::vector<std::unique_ptr<CheckSite>> sites_;
  std::vector<BccError> errors_;
  RuntimeStats stats_;
};

}  // namespace usk::bcc
