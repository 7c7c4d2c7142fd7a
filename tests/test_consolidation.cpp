// Tests for the syscall-consolidation module: graph mining, n-gram
// pattern extraction, the what-if analysis, and the consolidated system
// calls (readdirplus, open_read_close, open_write_close, open_fstat).
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "consolidation/graph.hpp"
#include "consolidation/newcalls.hpp"
#include "uk/userlib.hpp"
#include "workload/tracegen.hpp"

namespace usk::consolidation {
namespace {

using uk::Sys;

// --- graph ------------------------------------------------------------------------

TEST(SyscallGraphTest, EdgeWeights) {
  SyscallGraph g;
  std::vector<Sys> trace = {Sys::kOpen, Sys::kRead, Sys::kClose, Sys::kOpen,
                            Sys::kRead, Sys::kClose};
  g.add_trace(trace);
  EXPECT_EQ(g.edge(Sys::kOpen, Sys::kRead), 2u);
  EXPECT_EQ(g.edge(Sys::kRead, Sys::kClose), 2u);
  EXPECT_EQ(g.edge(Sys::kClose, Sys::kOpen), 1u);
  EXPECT_EQ(g.edge(Sys::kRead, Sys::kOpen), 0u);
  EXPECT_EQ(g.node(Sys::kOpen), 2u);
}

TEST(SyscallGraphTest, TopEdgesSorted) {
  SyscallGraph g;
  std::vector<Sys> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back(Sys::kReaddir);
    trace.push_back(Sys::kStat);
  }
  trace.push_back(Sys::kOpen);
  trace.push_back(Sys::kClose);
  g.add_trace(trace);
  auto edges = g.top_edges(3);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_EQ(edges[0].from, Sys::kReaddir);
  EXPECT_EQ(edges[0].to, Sys::kStat);
  EXPECT_GE(edges[0].weight, edges[1].weight);
}

TEST(SyscallGraphTest, HeavyPathsFindOpenReadClose) {
  SyscallGraph g;
  std::vector<Sys> trace;
  for (int i = 0; i < 100; ++i) {
    trace.insert(trace.end(), {Sys::kOpen, Sys::kRead, Sys::kClose});
  }
  for (int i = 0; i < 5; ++i) trace.push_back(Sys::kGetpid);  // noise
  g.add_trace(trace);
  auto paths = g.heavy_paths(4, 50, 5);
  ASSERT_FALSE(paths.empty());
  bool found = false;
  for (const auto& p : paths) {
    if (p.to_string().find("open-read-close") != std::string::npos) {
      found = true;
      EXPECT_GE(p.weight, 99u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SyscallGraphTest, PathToStringReadable) {
  SyscallGraph::Path p;
  p.seq = {Sys::kOpen, Sys::kFstat};
  EXPECT_EQ(p.to_string(), "open-fstat");
}

TEST(SyscallGraphTest, AuditIngestion) {
  fs::MemFs fs;
  uk::Kernel kernel(fs);
  uk::Audit& audit = kernel.audit();
  audit.on_syscall({1, Sys::kOpen, 0, 10, 0});
  audit.on_syscall({1, Sys::kRead, 100, 0, 100});
  audit.on_syscall({1, Sys::kClose, 0, 0, 0});
  SyscallGraph g;
  g.add_audit(audit);
  EXPECT_EQ(g.edge(Sys::kOpen, Sys::kRead), 1u);
}

// --- n-grams ---------------------------------------------------------------------------

TEST(NGramTest, FindsDominantTrigram) {
  std::vector<Sys> trace;
  for (int i = 0; i < 50; ++i) {
    trace.insert(trace.end(), {Sys::kOpen, Sys::kWrite, Sys::kClose});
  }
  auto grams = mine_ngrams(trace, 3, 5);
  ASSERT_FALSE(grams.empty());
  EXPECT_EQ(grams[0].to_string(), "open-write-close");
  EXPECT_EQ(grams[0].count, 50u);
}

TEST(NGramTest, ShortTraceYieldsNothing) {
  std::vector<Sys> trace = {Sys::kOpen};
  EXPECT_TRUE(mine_ngrams(trace, 3, 5).empty());
}

TEST(NGramTest, SyntheticTracesContainPaperPatterns) {
  // The miner must rediscover the paper's §2.2 candidate sequences from
  // each synthetic workload.
  auto web = workload::synth_trace(workload::TraceKind::kWebServer, 5000, 1);
  auto grams3 = mine_ngrams(web, 3, 10);
  bool orc = false;
  for (auto& gm : grams3) {
    if (gm.to_string() == "open-read-read" ||
        gm.to_string() == "read-read-close" ||
        gm.to_string() == "stat-open-read") {
      orc = true;
    }
  }
  EXPECT_TRUE(orc);

  auto ls = workload::synth_trace(workload::TraceKind::kLs, 3000, 2);
  auto grams2 = mine_ngrams(ls, 2, 5);
  ASSERT_FALSE(grams2.empty());
  EXPECT_EQ(grams2[0].to_string(), "stat-stat");  // the readdir-stat* burst
}

// --- what-if ----------------------------------------------------------------------------

TEST(WhatIfTest, CollapsesReaddirStatBursts) {
  std::vector<uk::SyscallRecord> recs;
  // One readdir returning a 4 KiB buffer followed by 100 stats.
  recs.push_back({1, Sys::kReaddir, 4096, 8, 4096});
  for (int i = 0; i < 100; ++i) {
    recs.push_back({1, Sys::kStat, 0, 20, 72});
  }
  recs.push_back({1, Sys::kGetpid, 1, 0, 0});
  WhatIfSavings s = readdirplus_whatif(recs);
  EXPECT_EQ(s.calls_before, 102u);
  EXPECT_EQ(s.calls_after, 2u);  // 1 readdirplus + 1 getpid
  EXPECT_LT(s.bytes_after, s.bytes_before);
}

TEST(WhatIfTest, NonBurstTrafficUntouched) {
  std::vector<uk::SyscallRecord> recs = {
      {1, Sys::kOpen, 3, 12, 0},
      {1, Sys::kRead, 100, 0, 100},
      {1, Sys::kClose, 0, 0, 0},
  };
  WhatIfSavings s = readdirplus_whatif(recs);
  EXPECT_EQ(s.calls_before, 3u);
  EXPECT_EQ(s.calls_after, 3u);
  EXPECT_EQ(s.bytes_before, s.bytes_after);
}

// --- consolidated syscalls -----------------------------------------------------------------

class NewCallsTest : public ::testing::Test {
 protected:
  NewCallsTest() : kernel_(fs_), proc_(kernel_, "nc") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  uk::Proc proc_;
};

TEST_F(NewCallsTest, ReaddirPlusReturnsNamesAndStats) {
  proc_.mkdir("/d");
  for (int i = 0; i < 20; ++i) {
    std::string p = "/d/f" + std::to_string(i);
    int fd = proc_.open(p.c_str(), fs::kOWrOnly | fs::kOCreat);
    char data[20] = {};  // file i is i bytes long (i < 20)
    proc_.write(fd, data, static_cast<std::size_t>(i));
    proc_.close(fd);
  }
  std::vector<std::byte> buf(8192);
  std::uint64_t cookie = 0;
  std::vector<std::pair<uk::UserDirent, fs::StatBuf>> all;
  for (;;) {
    SysRet n = sys_readdirplus(kernel_, proc_.process(), "/d", buf.data(),
                               buf.size(), &cookie);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    uk::decode_dirents_plus(
        std::span(buf.data(), static_cast<std::size_t>(n)), &all);
  }
  ASSERT_EQ(all.size(), 20u);
  // Entry f7 has size 7.
  for (auto& [de, st] : all) {
    if (de.name == "f7") {
      EXPECT_EQ(st.size, 7u);
    }
  }
}

TEST_F(NewCallsTest, ReaddirPlusIsOneCrossingPerBuffer) {
  proc_.mkdir("/one");
  for (int i = 0; i < 10; ++i) {
    int fd = proc_.open(("/one/f" + std::to_string(i)).c_str(),
                        fs::kOWrOnly | fs::kOCreat);
    proc_.close(fd);
  }
  std::vector<std::byte> buf(8192);
  std::uint64_t cookie = 0;
  std::uint64_t before = kernel_.boundary().stats().crossings;
  SysRet n = sys_readdirplus(kernel_, proc_.process(), "/one", buf.data(),
                             buf.size(), &cookie);
  ASSERT_GT(n, 0);
  EXPECT_EQ(kernel_.boundary().stats().crossings, before + 1);
}

TEST_F(NewCallsTest, ReaddirPlusCookieResumes) {
  proc_.mkdir("/r");
  for (int i = 0; i < 30; ++i) {
    int fd = proc_.open(("/r/f" + std::to_string(i)).c_str(),
                        fs::kOWrOnly | fs::kOCreat);
    proc_.close(fd);
  }
  // Tiny buffer: forces multiple calls; every entry exactly once.
  std::vector<std::byte> buf(256);
  std::uint64_t cookie = 0;
  std::set<std::string> names;
  int calls = 0;
  for (;;) {
    SysRet n = sys_readdirplus(kernel_, proc_.process(), "/r", buf.data(),
                               buf.size(), &cookie);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    std::vector<std::pair<uk::UserDirent, fs::StatBuf>> batch;
    uk::decode_dirents_plus(
        std::span(buf.data(), static_cast<std::size_t>(n)), &batch);
    for (auto& [de, st] : batch) names.insert(de.name);
    ++calls;
  }
  EXPECT_EQ(names.size(), 30u);
  EXPECT_GT(calls, 5);
}

TEST_F(NewCallsTest, ReaddirPlusErrors) {
  std::vector<std::byte> buf(512);
  std::uint64_t cookie = 0;
  EXPECT_EQ(sysret_errno(sys_readdirplus(kernel_, proc_.process(),
                                         "/missing", buf.data(), buf.size(),
                                         &cookie)),
            Errno::kENOENT);
  EXPECT_EQ(sysret_errno(sys_readdirplus(kernel_, proc_.process(), "/missing",
                                         nullptr, 0, &cookie)),
            Errno::kEFAULT);
}

TEST_F(NewCallsTest, OpenReadCloseMatchesSequence) {
  int fd = proc_.open("/orc", fs::kOWrOnly | fs::kOCreat);
  const char content[] = "consolidated!";
  proc_.write(fd, content, sizeof(content) - 1);
  proc_.close(fd);

  char buf[64] = {};
  std::uint64_t before = kernel_.boundary().stats().crossings;
  SysRet n = sys_open_read_close(kernel_, proc_.process(), "/orc", buf,
                                 sizeof(buf), 0);
  EXPECT_EQ(kernel_.boundary().stats().crossings, before + 1);
  ASSERT_EQ(n, static_cast<SysRet>(sizeof(content) - 1));
  EXPECT_STREQ(buf, content);

  // With an offset.
  char buf2[64] = {};
  n = sys_open_read_close(kernel_, proc_.process(), "/orc", buf2,
                          sizeof(buf2), 5);
  ASSERT_EQ(n, static_cast<SysRet>(sizeof(content) - 1 - 5));
  EXPECT_STREQ(buf2, "lidated!");
}

TEST_F(NewCallsTest, OpenWriteCloseCreatesAndAppends) {
  const char a[] = "first";
  SysRet n = sys_open_write_close(kernel_, proc_.process(), "/owc", a, 5, 0,
                                  fs::kOCreat | fs::kOTrunc);
  ASSERT_EQ(n, 5);
  const char b[] = "-second";
  n = sys_open_write_close(kernel_, proc_.process(), "/owc", b, 7, 0,
                           fs::kOAppend);
  ASSERT_EQ(n, 7);
  char buf[64] = {};
  sys_open_read_close(kernel_, proc_.process(), "/owc", buf, sizeof(buf), 0);
  EXPECT_STREQ(buf, "first-second");
}

TEST_F(NewCallsTest, OpenFstatMatchesStat) {
  int fd = proc_.open("/of", fs::kOWrOnly | fs::kOCreat);
  char d[77] = {};
  proc_.write(fd, d, sizeof(d));
  proc_.close(fd);

  fs::StatBuf via_new{}, via_classic{};
  ASSERT_EQ(sys_open_fstat(kernel_, proc_.process(), "/of", &via_new), 0);
  ASSERT_EQ(proc_.stat("/of", &via_classic), 0);
  EXPECT_EQ(via_new.ino, via_classic.ino);
  EXPECT_EQ(via_new.size, via_classic.size);
  EXPECT_EQ(via_new.size, 77u);
}

TEST_F(NewCallsTest, ConsolidatedCallsLeakNoFds) {
  int fd = proc_.open("/leak", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  std::size_t open_before = proc_.process().fds.open_count();
  char buf[16];
  sys_open_read_close(kernel_, proc_.process(), "/leak", buf, sizeof(buf), 0);
  fs::StatBuf st;
  sys_open_fstat(kernel_, proc_.process(), "/leak", &st);
  sys_open_write_close(kernel_, proc_.process(), "/leak", buf, 4, 0, 0);
  EXPECT_EQ(proc_.process().fds.open_count(), open_before);
}

TEST_F(NewCallsTest, AuditSeesConsolidatedCalls) {
  int fd = proc_.open("/au", fs::kOWrOnly | fs::kOCreat);
  proc_.close(fd);
  kernel_.audit().enable();
  kernel_.audit().clear();
  char buf[8];
  sys_open_read_close(kernel_, proc_.process(), "/au", buf, sizeof(buf), 0);
  kernel_.audit().disable();
  ASSERT_EQ(kernel_.audit().records().size(), 1u);
  EXPECT_EQ(kernel_.audit().records()[0].nr, Sys::kOpenReadClose);
}

TEST_F(NewCallsTest, ReaddirPlusSavesBytesVsClassicSequence) {
  proc_.mkdir("/cmp");
  for (int i = 0; i < 100; ++i) {
    int fd = proc_.open(("/cmp/file" + std::to_string(i)).c_str(),
                        fs::kOWrOnly | fs::kOCreat);
    proc_.close(fd);
  }
  auto& b = kernel_.boundary();

  // Classic: readdir loop + stat per file.
  std::uint64_t classic_bytes0 = b.stats().bytes_to_user +
                                 b.stats().bytes_from_user;
  std::uint64_t classic_calls0 = b.stats().crossings;
  auto entries = proc_.list_dir("/cmp");
  fs::StatBuf st;
  for (auto& e : entries) {
    std::string p = "/cmp/" + e.name;
    proc_.stat(p.c_str(), &st);
  }
  std::uint64_t classic_bytes = b.stats().bytes_to_user +
                                b.stats().bytes_from_user - classic_bytes0;
  std::uint64_t classic_calls = b.stats().crossings - classic_calls0;

  // readdirplus.
  std::uint64_t plus_bytes0 = b.stats().bytes_to_user +
                              b.stats().bytes_from_user;
  std::uint64_t plus_calls0 = b.stats().crossings;
  std::vector<std::byte> buf(8192);
  std::uint64_t cookie = 0;
  std::size_t got = 0;
  for (;;) {
    SysRet n = sys_readdirplus(kernel_, proc_.process(), "/cmp", buf.data(),
                               buf.size(), &cookie);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    std::vector<std::pair<uk::UserDirent, fs::StatBuf>> batch;
    got += uk::decode_dirents_plus(
        std::span(buf.data(), static_cast<std::size_t>(n)), &batch);
  }
  std::uint64_t plus_bytes = b.stats().bytes_to_user +
                             b.stats().bytes_from_user - plus_bytes0;
  std::uint64_t plus_calls = b.stats().crossings - plus_calls0;

  EXPECT_EQ(got, 100u);
  EXPECT_LT(plus_calls * 10, classic_calls);  // >10x fewer crossings
  EXPECT_LT(plus_bytes, classic_bytes);       // and fewer bytes
}

}  // namespace
}  // namespace usk::consolidation
