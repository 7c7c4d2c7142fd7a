// Selective-instrumentation rule language (paper §3.5 future work).
//
// "First, we intend to make the compiler capable of inserting
// instrumentation based on rules such as 'instrument every operation on an
// inode's reference count.' ... we plan to develop a language that
// specifies code patterns that the KGCC compiler can then recognize and
// instrument, in the spirit of aspect-oriented programming."
//
// We cannot patch a compiler, so the rules select events at the dispatch
// point instead: kernel objects are registered with a RuleSet under a
// class and a name, and the RuleSet, compiled from a small declarative
// language, decides which events reach the monitors and the ring buffer. One rule per line:
//
//     # instrument every operation on an inode's reference count
//     monitor refcount inode*
//     ignore  spinlock console_lock
//     monitor *        dcache*
//
// Columns: action (monitor|ignore), event class (spinlock, refcount,
// semaphore, irq, user, or *), object-name glob ('*' wildcards). First
// matching rule wins; unmatched events are not instrumented (default
// deny), so a ruleset is also a cheap way to turn most instrumentation
// off.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "evmon/event.hpp"

namespace usk::evmon {

/// Event-class name derived from the event's type code ("spinlock",
/// "refcount", "semaphore", "irq", "user").
std::string_view event_class(std::int32_t type);

/// Glob match supporting '*' (any run of characters) anywhere.
bool glob_match(std::string_view pattern, std::string_view text);

enum class RuleAction { kMonitor, kIgnore };

struct Rule {
  RuleAction action = RuleAction::kMonitor;
  std::string klass_pattern;
  std::string name_pattern;
};

struct RuleParseResult {
  bool ok = true;
  int bad_line = 0;
  std::string error;
};

class RuleSet {
 public:
  /// Parse rule text (one rule per line, '#' comments, blank lines ok).
  RuleParseResult parse(std::string_view text);

  /// Name a monitored kernel object (class + instance name), which is
  /// what lets rules talk about "an inode's reference count". A non-empty
  /// class overrides the event type's. Register before dispatch starts.
  void register_object(const void* obj, std::string klass, std::string name);

  /// Should this event be instrumented? Unregistered objects match name
  /// "<anon>". First matching rule wins; default is NOT instrumented
  /// (an empty ruleset instruments nothing).
  [[nodiscard]] bool allows(const Event& e) const;

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  // Decision statistics (mutable counters; not thread-safe by design --
  // dispatch in the simulated kernel is serialized).
  mutable std::uint64_t allowed = 0;
  mutable std::uint64_t suppressed = 0;

 private:
  struct ObjectInfo {
    std::string klass;  ///< "refcount", "spinlock", ...
    std::string name;   ///< "inode_ref", "dcache_lock", ...
  };

  std::vector<Rule> rules_;
  std::unordered_map<const void*, ObjectInfo> objects_;
};

}  // namespace usk::evmon
