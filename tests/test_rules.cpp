// Tests for the selective-instrumentation rule language (§3.5 future
// work): glob matching, parsing, object registration, and end-to-end
// filtering at the dispatcher.
#include <gtest/gtest.h>

#include "base/sync.hpp"
#include "evmon/dispatcher.hpp"
#include "evmon/monitors.hpp"
#include "evmon/rules.hpp"

namespace usk::evmon {
namespace {

// --- glob ---------------------------------------------------------------------

TEST(GlobTest, ExactAndWildcards) {
  EXPECT_TRUE(glob_match("abc", "abc"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_FALSE(glob_match("abc", "abcd"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("inode*", "inode_ref"));
  EXPECT_FALSE(glob_match("inode*", "dentry_ref"));
  EXPECT_TRUE(glob_match("*lock", "dcache_lock"));
  EXPECT_TRUE(glob_match("d*_l*k", "dcache_lock"));
  EXPECT_TRUE(glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-x-c-y-b"));
  EXPECT_TRUE(glob_match("?ock", "lock"));
  EXPECT_FALSE(glob_match("?ock", "ock"));
}

// --- event class names --------------------------------------------------------------

TEST(EventClassTest, AllKindsNamed) {
  EXPECT_EQ(event_class(EventType::kSpinLock), "spinlock");
  EXPECT_EQ(event_class(EventType::kSpinUnlock), "spinlock");
  EXPECT_EQ(event_class(EventType::kRefInc), "refcount");
  EXPECT_EQ(event_class(EventType::kSemUp), "semaphore");
  EXPECT_EQ(event_class(EventType::kIrqDisable), "irq");
  EXPECT_EQ(event_class(EventType::kUserBase + 3), "user");
}

// --- parsing -------------------------------------------------------------------------

TEST(RuleParseTest, ValidRules) {
  RuleSet rs;
  auto r = rs.parse(
      "# instrument every operation on an inode's reference count\n"
      "monitor refcount inode*\n"
      "\n"
      "ignore  spinlock console_lock   # inline comment\n"
      "monitor *        dcache*\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(rs.rules().size(), 3u);
  EXPECT_EQ(rs.rules()[0].action, RuleAction::kMonitor);
  EXPECT_EQ(rs.rules()[0].klass_pattern, "refcount");
  EXPECT_EQ(rs.rules()[1].action, RuleAction::kIgnore);
}

TEST(RuleParseTest, Errors) {
  RuleSet rs;
  auto r = rs.parse("monitor refcount\n");  // missing name column
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.bad_line, 1);

  r = rs.parse("watch refcount inode*\n");
  EXPECT_FALSE(r.ok);

  r = rs.parse("monitor refcount inode* extra\n");
  EXPECT_FALSE(r.ok);
}

// --- registry + matching semantics ------------------------------------------------------

TEST(RuleSetTest, FirstMatchWinsDefaultDeny) {
  int inode_ref = 0, dentry_ref = 0, lock = 0;
  RuleSet rs;
  rs.register_object(&inode_ref, "refcount", "inode_ref");
  rs.register_object(&dentry_ref, "refcount", "dentry_ref");
  rs.register_object(&lock, "spinlock", "dcache_lock");
  ASSERT_TRUE(rs.parse("ignore  refcount dentry*\n"
                       "monitor refcount *\n"
                       "monitor spinlock dcache_lock\n").ok);

  Event e;
  e.type = EventType::kRefInc;
  e.object = &inode_ref;
  EXPECT_TRUE(rs.allows(e));
  e.object = &dentry_ref;
  EXPECT_FALSE(rs.allows(e));  // first rule wins
  e.type = EventType::kSpinLock;
  e.object = &lock;
  EXPECT_TRUE(rs.allows(e));
  // Unregistered object of unmatched class: default deny.
  int anon = 0;
  e.type = EventType::kSemDown;
  e.object = &anon;
  EXPECT_FALSE(rs.allows(e));
  EXPECT_EQ(rs.allowed, 2u);
  EXPECT_EQ(rs.suppressed, 2u);
}

TEST(RuleSetTest, AnonymousObjectsMatchAnonName) {
  RuleSet rs;
  ASSERT_TRUE(rs.parse("monitor spinlock <anon>\n").ok);
  Event e;
  e.type = EventType::kSpinLock;
  int anon = 0;
  e.object = &anon;
  EXPECT_TRUE(rs.allows(e));
}

TEST(RuleSetTest, RegisteredClassOverridesTypeClass) {
  int counter = 0;
  // A module logs its own counter with a user event type but registers it
  // as class "refcount": rules on "refcount" still apply.
  RuleSet rs;
  rs.register_object(&counter, "refcount", "inode_ref");
  ASSERT_TRUE(rs.parse("monitor refcount inode*\n").ok);
  Event e;
  e.type = EventType::kUserBase + 1;
  e.object = &counter;
  EXPECT_TRUE(rs.allows(e));
}

// --- end-to-end: filter on the dispatcher -----------------------------------------------

TEST(RuleSetTest, DispatcherFiltersByRules) {
  base::SpinLock dcache("dcache_lock");
  base::SpinLock console("console_lock");
  RuleSet rs;
  rs.register_object(&dcache, "spinlock", "dcache_lock");
  rs.register_object(&console, "spinlock", "console_lock");
  ASSERT_TRUE(rs.parse("monitor spinlock dcache*\n").ok);

  Dispatcher d;
  SpinlockMonitor mon;
  mon.attach(d);
  d.set_filter([&](const Event& e) { return rs.allows(e); });
  d.install_sync_bridge();

  USK_LOCK(dcache);
  USK_UNLOCK(dcache);
  USK_LOCK(console);  // would be a "still held" anomaly if monitored
  d.remove_sync_bridge();
  d.set_filter(nullptr);

  mon.finish();
  // Only the dcache lock's two events arrived; the console lock -- and its
  // would-be anomaly -- were never instrumented.
  EXPECT_EQ(mon.events_seen(), 2u);
  EXPECT_TRUE(mon.anomalies().empty());
  USK_UNLOCK(console);
}

TEST(RuleSetTest, EmptyRulesetSuppressesEverything) {
  RuleSet rs;
  ASSERT_TRUE(rs.parse("").ok);
  Dispatcher d;
  int called = 0;
  d.register_callback([&](const Event&) { ++called; });
  d.set_filter([&](const Event& e) { return rs.allows(e); });
  d.log_event(nullptr, EventType::kSpinLock, "x.c", 1);
  EXPECT_EQ(called, 0);
  EXPECT_EQ(d.stats().events, 0u);
}

}  // namespace
}  // namespace usk::evmon
