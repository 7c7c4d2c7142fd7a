#include "evmon/rules.hpp"

#include <sstream>

namespace usk::evmon {

// --- helpers -----------------------------------------------------------------------

std::string_view event_class(std::int32_t type) {
  switch (type) {
    case EventType::kSpinLock:
    case EventType::kSpinUnlock:
      return "spinlock";
    case EventType::kRefInc:
    case EventType::kRefDec:
      return "refcount";
    case EventType::kSemDown:
    case EventType::kSemUp:
      return "semaphore";
    case EventType::kIrqDisable:
    case EventType::kIrqEnable:
      return "irq";
    default:
      return "user";
  }
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard match with backtracking over the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

// --- RuleSet ----------------------------------------------------------------------------

RuleParseResult RuleSet::parse(std::string_view text) {
  rules_.clear();
  RuleParseResult res;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string action, klass, name;
    if (!(ls >> action)) continue;  // blank
    if (!(ls >> klass >> name)) {
      return {false, line_no, "expected: <monitor|ignore> <class> <name>"};
    }
    std::string extra;
    if (ls >> extra) {
      return {false, line_no, "trailing tokens after rule"};
    }
    Rule r;
    if (action == "monitor") {
      r.action = RuleAction::kMonitor;
    } else if (action == "ignore") {
      r.action = RuleAction::kIgnore;
    } else {
      return {false, line_no, "unknown action '" + action + "'"};
    }
    r.klass_pattern = klass;
    r.name_pattern = name;
    rules_.push_back(std::move(r));
  }
  return res;
}

void RuleSet::register_object(const void* obj, std::string klass,
                              std::string name) {
  objects_[obj] = ObjectInfo{std::move(klass), std::move(name)};
}

bool RuleSet::allows(const Event& e) const {
  std::string_view klass = event_class(e.type);
  auto it = objects_.find(e.object);
  const ObjectInfo* info = it == objects_.end() ? nullptr : &it->second;
  std::string_view name = info != nullptr ? std::string_view(info->name)
                                          : std::string_view("<anon>");
  // A registered object may override the type-derived class (e.g., a
  // module-specific counter logged with a user event type).
  if (info != nullptr && !info->klass.empty()) klass = info->klass;

  for (const Rule& r : rules_) {
    if (glob_match(r.klass_pattern, klass) &&
        glob_match(r.name_pattern, name)) {
      if (r.action == RuleAction::kMonitor) {
        ++allowed;
        return true;
      }
      ++suppressed;
      return false;
    }
  }
  ++suppressed;
  return false;  // default deny
}

}  // namespace usk::evmon
