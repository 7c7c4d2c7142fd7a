// Socket objects for the in-kernel loopback network stack.
//
// A Socket is the net analogue of an inode: a kernel object with a
// bounded receive queue, addressed by an InodeNum so it can sit behind
// the fd table like any file (net::SocketFs adapts it to fs::FileSystem,
// which is what makes read/write/close and Cosy compounds work on
// connections unchanged). The loopback "wire" is modelled the way
// blockdev models the disk: moving bytes costs per-packet and per-KiB
// work units charged to the sending/receiving task, so crossings and
// copies measured by benchmarks are backed by real CPU time. The host's
// own cost of the move stays small beneath that charge: ByteQueue copies
// in at most two memcpys and its storage is not zero-filled.
//
// Locking: each Socket has one mutex. The documented lock order is
// socket -> epoll (a socket holding its own lock may signal an epoll
// instance; epoll code never touches a socket while holding the epoll
// lock). Send locks only the *peer* socket when pushing into its queue;
// no path ever holds two socket locks at once. The socket's WaitQueue
// mutex is a leaf below all of these (see sched/waitqueue.hpp): wakers
// mutate a socket's state under its mu_ and call wq_.wake_all() after
// (send wakes the receiver only once its wire charge is done), sleepers
// take their token under mu_ and park after dropping it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "fs/types.hpp"
#include "sched/waitqueue.hpp"

namespace usk::net {

class Epoll;

/// Tunable loopback costs in work units, the net sibling of uk::CostModel
/// and fs::FsCosts. Defaults approximate 2005-era loopback TCP relative
/// to the ~450-unit syscall crossing.
struct NetCosts {
  std::size_t mtu = 1448;             ///< payload bytes per simulated packet
  std::uint64_t per_packet = 300;     ///< device + protocol work per packet
  std::uint64_t per_kib = 120;        ///< checksum/segmentation per KiB
  std::uint64_t connect_setup = 1200; ///< handshake (client side)
  std::uint64_t accept_setup = 700;   ///< handshake (server side)
  std::uint64_t poll_op = 40;         ///< readiness check per epoll entry
  std::size_t rx_capacity = 1 << 16;  ///< per-connection rx queue bytes
  int backlog_max = 128;              ///< listen() backlog ceiling
};

/// Bounded byte ring: the per-connection receive queue. push and pop move
/// their bytes in at most two memcpys (the run up to the wrap point, then
/// the rest from index 0) and update head_/size_ once per call. The
/// storage is not zero-filled: no byte is read before push writes it.
class ByteQueue {
 public:
  explicit ByteQueue(std::size_t capacity)
      : buf_(std::make_unique_for_overwrite<std::byte[]>(capacity)),
        cap_(capacity) {}

  /// Append as much of `in` as fits; returns bytes accepted.
  std::size_t push(std::span<const std::byte> in) {
    const std::size_t n = std::min(in.size(), cap_ - size_);
    if (n == 0) return 0;  // an empty span may carry a null data()
    std::size_t tail = head_ + size_;
    if (tail >= cap_) tail -= cap_;
    const std::size_t first = std::min(n, cap_ - tail);
    std::memcpy(buf_.get() + tail, in.data(), first);
    if (first < n) std::memcpy(buf_.get(), in.data() + first, n - first);
    size_ += n;
    return n;
  }

  /// Remove up to out.size() bytes; returns bytes delivered.
  std::size_t pop(std::span<std::byte> out) {
    const std::size_t n = std::min(out.size(), size_);
    if (n == 0) return 0;
    const std::size_t first = std::min(n, cap_ - head_);
    std::memcpy(out.data(), buf_.get() + head_, first);
    if (first < n) std::memcpy(out.data() + first, buf_.get(), n - first);
    head_ += n;
    if (head_ >= cap_) head_ -= cap_;
    size_ -= n;
    return n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t free_space() const { return cap_ - size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  std::unique_ptr<std::byte[]> buf_;
  std::size_t cap_;
  std::size_t head_ = 0;  ///< index of the oldest byte
  std::size_t size_ = 0;
};

enum class SockState : std::uint8_t {
  kNew,        ///< socket() done, no address yet
  kBound,      ///< bind() done
  kListening,  ///< listen() done, accepting connections
  kConnected,  ///< data socket (either side of a connection)
  kClosed,     ///< last fd released
};

const char* sock_state_name(SockState s);

/// Readiness bits (epoll event mask; also the wire format in EpollEvent).
inline constexpr std::uint32_t kEpollIn = 0x1;
inline constexpr std::uint32_t kEpollOut = 0x4;
inline constexpr std::uint32_t kEpollHup = 0x10;

class Socket {
 public:
  Socket(fs::InodeNum id, const NetCosts& costs, bool nonblock)
      : id_(id), rx_(costs.rx_capacity) {
    nonblock_ = nonblock;
  }

  [[nodiscard]] fs::InodeNum id() const { return id_; }

 private:
  const fs::InodeNum id_;

 public:

  // All fields below are guarded by mu_ unless noted. The struct-like
  // exposure keeps Net (the protocol implementation, net.cpp) as the one
  // place with socket logic, mirroring how struct sock is manipulated by
  // the protocol code rather than through accessors.
  std::mutex mu_;
  /// Parked accept/connect/send/recv waiters. Wake with mu_ held, after
  /// mutating whatever condition the sleeper re-checks under mu_.
  sched::WaitQueue wq_;

  SockState state_ = SockState::kNew;
  std::uint16_t port_ = 0;     ///< bound/listening port (0 = unbound)
  std::uint16_t peer_port_ = 0;
  bool nonblock_ = false;      ///< set at socket(); inherited by accept
  bool rd_shutdown_ = false;   ///< SHUT_RD: recv returns 0
  bool tx_shutdown_ = false;   ///< SHUT_WR: send returns EPIPE
  bool rx_eof_ = false;        ///< peer shut down / closed its write side

  ByteQueue rx_;
  std::weak_ptr<Socket> peer_;

  // Listener state.
  std::deque<std::shared_ptr<Socket>> accept_q_;
  int backlog_ = 0;

  // Epoll instances watching this socket: (epoll, userfd registered under).
  std::vector<std::pair<std::weak_ptr<Epoll>, int>> watchers_;

  // Byte/packet counters (guarded by mu_; snapshotted for /proc/net).
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t pkts_rx_ = 0;
  std::uint64_t pkts_tx_ = 0;

  /// fd references (dup/close bookkeeping via SocketFs hooks). Atomic so
  /// SocketFs can adjust it without the socket lock.
  std::atomic<int> refs_{1};

  /// Current readiness mask. Caller holds mu_.
  [[nodiscard]] std::uint32_t readiness_locked() const {
    std::uint32_t ev = 0;
    if (state_ == SockState::kListening) {
      if (!accept_q_.empty()) ev |= kEpollIn;
      return ev;
    }
    if (rx_.size() > 0 || rx_eof_ || rd_shutdown_) ev |= kEpollIn;
    if (state_ == SockState::kConnected && !tx_shutdown_) {
      std::shared_ptr<Socket> peer = peer_.lock();
      // kEpollOut is a hint: precise free space needs the peer lock, which
      // we must not take here (one-socket-lock rule). Peer liveness is
      // enough for level-triggered wakeups; send re-checks space itself.
      if (peer != nullptr) ev |= kEpollOut;
    }
    if (state_ == SockState::kClosed ||
        (state_ == SockState::kConnected && peer_.expired())) {
      ev |= kEpollHup;
    }
    return ev;
  }
};

}  // namespace usk::net
