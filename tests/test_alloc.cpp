// Exact allocation gate for the warm classic file and socket paths.
//
// This binary replaces the global operator new with a counter. The counter
// only counts on the measuring thread, and only inside an AllocWindow, so
// gtest's own bookkeeping and the fixtures' setup stay out of the figure.
// A warm getpid, open+close, read, lseek, write, fstat or stat on an
// existing MemFs file must not enter the host allocator at all:
//  - kUser buffers up to CallerBuf::kInlineBytes bounce through storage on
//    the handler's stack;
//  - a dcache hit moves its LRU node in place and probes with a borrowed
//    name;
//  - the path walk reads components straight out of the caller's path;
//  - epoll_wait stages its watch snapshot on its stack and writes its
//    events straight into CallerBuf's inline bounce.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "net/net.hpp"
#include "uk/kernel.hpp"
#include "uk/userlib.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_news = 0;

void* counted_new(std::size_t n) {
  if (t_counting) ++t_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_new(std::size_t n, std::align_val_t al) {
  if (t_counting) ++t_news;
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a nonzero multiple of the alignment.
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_new(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace usk::uk {
namespace {

/// Counts operator new calls made by this thread while it is alive.
class AllocWindow {
 public:
  AllocWindow() : start_(t_news) { t_counting = true; }
  ~AllocWindow() { t_counting = false; }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;

  [[nodiscard]] std::uint64_t news() const { return t_news - start_; }

 private:
  std::uint64_t start_;
};

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() : kernel_(fs_), proc_(kernel_, "alloc") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  fs::MemFs fs_;
  Kernel kernel_;
  Proc proc_;
};

// Stored through a volatile pointer, an allocation escapes, so the
// optimiser may not elide it.
std::vector<int>* volatile g_sink = nullptr;

// The probe is live: the counter sees an allocation made in its window.
TEST_F(AllocTest, CounterSeesAHeapAllocation) {
  std::uint64_t news = 0;
  {
    AllocWindow w;
    g_sink = new std::vector<int>(1000);
    news = w.news();
  }
  delete g_sink;
  EXPECT_EQ(news, 2u);  // the vector object and its element array
}

// 1,000 warm rounds of the seven classic file calls on MemFs make no host
// heap allocation. The leaf name is longer than std::string's inline
// (SSO) capacity, so a dcache probe that copied it would allocate.
TEST_F(AllocTest, WarmClassicFileCallsMakeNoHeapAllocation) {
  static const char kPath[] = "/pm/a-leaf-name-past-the-sso-limit-36";
  static_assert(sizeof(kPath) - 1 - 4 > 15);
  ASSERT_EQ(proc_.mkdir("/pm"), 0);
  const int fd = proc_.open(kPath, fs::kORdWr | fs::kOCreat);
  ASSERT_GE(fd, 0);
  std::vector<char> out(512, 'w');
  std::vector<char> in(512, 0);
  ASSERT_EQ(proc_.write(fd, out.data(), out.size()), 512);

  const SysRet pid = proc_.getpid();
  int bad = 0;  // counted, not asserted, inside the window
  auto round = [&] {
    bad += proc_.getpid() != pid;
    const int fd2 = proc_.open(kPath, fs::kORdWr);
    bad += fd2 < 0;
    bad += proc_.close(fd2) != 0;
    bad += proc_.lseek(fd, 0, fs::kSeekSet) != 0;
    bad += proc_.read(fd, in.data(), in.size()) != 512;
    bad += proc_.lseek(fd, 0, fs::kSeekSet) != 0;
    bad += proc_.write(fd, out.data(), out.size()) != 512;
    fs::StatBuf st{};
    bad += proc_.fstat(fd, &st) != 0 || st.size != 512;
    bad += proc_.stat(kPath, &st) != 0 || st.size != 512;
  };
  for (int i = 0; i < 10; ++i) round();  // warm the dcache and fd table

  std::uint64_t news = 0;
  {
    AllocWindow w;
    for (int i = 0; i < 1000; ++i) round();
    news = w.news();
  }
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(news, 0u) << "operator new calls over 1,000 warm rounds";
  EXPECT_EQ(in, out);
  EXPECT_EQ(proc_.close(fd), 0);
}

// A 4 KiB kUser read or write bounces through the inline buffer; a call
// above the cap stages its bytes on the heap and still moves them exactly.
TEST_F(AllocTest, InlineBounceCapAndHeapFallback) {
  constexpr std::size_t kCap = CallerBuf::kInlineBytes;
  constexpr std::size_t kFile = 4 * kCap;
  const int fd = proc_.open("/sixteen-kib-data-file", fs::kORdWr | fs::kOCreat);
  ASSERT_GE(fd, 0);
  std::vector<std::byte> file(kFile);
  for (std::size_t i = 0; i < kFile; ++i) {
    file[i] = static_cast<std::byte>(i * 7 + 1);
  }
  ASSERT_EQ(proc_.write(fd, file.data(), kFile),
            static_cast<SysRet>(kFile));

  std::vector<std::byte> chunk(kCap);
  int bad = 0;
  auto pass = [&] {
    for (std::size_t off = 0; off < kFile; off += kCap) {
      bad += proc_.lseek(fd, static_cast<std::int64_t>(off), fs::kSeekSet) !=
             static_cast<SysRet>(off);
      bad += proc_.read(fd, chunk.data(), kCap) != static_cast<SysRet>(kCap);
      bad += std::memcmp(chunk.data(), file.data() + off, kCap) != 0;
      bad += proc_.lseek(fd, static_cast<std::int64_t>(off), fs::kSeekSet) !=
             static_cast<SysRet>(off);
      bad += proc_.write(fd, chunk.data(), kCap) != static_cast<SysRet>(kCap);
    }
  };
  pass();  // warm: a trace site's histogram is made on its first call
  std::uint64_t news = 0;
  {
    AllocWindow w;
    pass();
    news = w.news();
  }
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(news, 0u) << "4 KiB kUser reads and writes";

  // Above the cap: one heap bounce per call, and the bytes are exact.
  std::vector<std::byte> next(kFile);
  for (std::size_t i = 0; i < kFile; ++i) {
    next[i] = static_cast<std::byte>(i * 13 + 5);
  }
  std::vector<std::byte> back(kFile);
  {
    AllocWindow w;
    ASSERT_EQ(proc_.lseek(fd, 0, fs::kSeekSet), 0);
    ASSERT_EQ(proc_.write(fd, next.data(), kFile), static_cast<SysRet>(kFile));
    ASSERT_EQ(proc_.lseek(fd, 0, fs::kSeekSet), 0);
    ASSERT_EQ(proc_.read(fd, back.data(), kFile), static_cast<SysRet>(kFile));
    news = w.news();
  }
  EXPECT_EQ(news, 2u) << "one bounce for the write, one for the read";
  EXPECT_EQ(back, next);
  EXPECT_EQ(proc_.close(fd), 0);
}

// 1,000 warm rounds of the epoll server loop on a connected pair: a 64 B
// send, epoll_wait reporting the one ready fd (maxevents 1), and a 64 B
// recv make no host heap allocation.
TEST_F(AllocTest, WarmEpollSendRecvMakesNoHeapAllocation) {
  net::Net net(kernel_);
  Process& p = proc_.process();
  const int lfd = static_cast<int>(net.sys_socket(p));
  ASSERT_GE(lfd, 0);
  ASSERT_EQ(net.sys_bind(p, lfd, 7400), 0);
  ASSERT_EQ(net.sys_listen(p, lfd, 1), 0);
  const int cli = static_cast<int>(net.sys_socket(p));
  ASSERT_EQ(net.sys_connect(p, cli, 7400), 0);
  const int srv = static_cast<int>(net.sys_accept(p, lfd));
  ASSERT_GE(srv, 0);
  const int ep = static_cast<int>(net.sys_epoll_create(p));
  ASSERT_GE(ep, 0);
  ASSERT_EQ(net.sys_epoll_ctl(p, ep, net::kEpollCtlAdd, srv, net::kEpollIn),
            0);

  std::vector<char> out(64, 's');
  std::vector<char> in(64, 0);
  int bad = 0;  // counted, not asserted, inside the window
  auto round = [&] {
    bad += net.sys_send(p, cli, out.data(), out.size()) != 64;
    net::EpollEvent ev;
    bad += net.sys_epoll_wait(p, ep, &ev, 1, 0) != 1 || ev.fd != srv;
    bad += net.sys_recv(p, srv, in.data(), in.size()) != 64;
  };
  for (int i = 0; i < 10; ++i) round();  // warm: trace sites' histograms

  std::uint64_t news = 0;
  {
    AllocWindow w;
    for (int i = 0; i < 1000; ++i) round();
    news = w.news();
  }
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(news, 0u) << "operator new calls over 1,000 warm rounds";
  EXPECT_EQ(in, out);
  for (int fd : {ep, srv, cli, lfd}) EXPECT_EQ(proc_.close(fd), 0);
}

}  // namespace
}  // namespace usk::uk
