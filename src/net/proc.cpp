// /proc/net/**: socket-state and counter tables.
//
// Registered from here (Net::register_proc) rather than uk/kproc.cpp
// because the layering runs uk <- net: the kernel core cannot name the
// network stack. Callers do `net.register_proc(kernel.mount_procfs())`.
//
// Files:
//   /net/stats      global socket/connection/byte/packet counters
//   /net/sockets    one line per live socket (state, port, queue, bytes)
//   /net/listeners  listening sockets with backlog occupancy

#include <cinttypes>
#include <cstdio>

#include "base/appendf.hpp"
#include "fs/procfs.hpp"
#include "net/net.hpp"

namespace usk::net {

using base::appendf;

std::string Net::format_stats() const {
  NetStats s = stats();
  std::string out;
  appendf(out, "sockets_created %" PRIu64 "\n", s.sockets_created);
  appendf(out, "conns_accepted %" PRIu64 "\n", s.conns_accepted);
  appendf(out, "conns_refused %" PRIu64 "\n", s.conns_refused);
  appendf(out, "bytes_sent %" PRIu64 "\n", s.bytes_sent);
  appendf(out, "packets_sent %" PRIu64 "\n", s.packets_sent);
  appendf(out, "sendfile_bytes %" PRIu64 "\n", s.sendfile_bytes);
  return out;
}

std::string Net::format_sockets() {
  // Snapshot the table first: tab_mu_ and a socket's mu_ are never held
  // together anywhere in the stack, and this keeps it that way.
  std::vector<std::shared_ptr<Socket>> snap;
  {
    std::lock_guard tlk(tab_mu_);
    snap.reserve(sockets_.size());
    for (const auto& [ino, s] : sockets_) snap.push_back(s);
  }
  std::string out =
      "ino state port peer_port rxq bytes_rx bytes_tx pkts_rx pkts_tx "
      "refs\n";
  for (const std::shared_ptr<Socket>& s : snap) {
    std::lock_guard slk(s->mu_);
    appendf(out,
            "%" PRIu64 " %s %u %u %zu %" PRIu64 " %" PRIu64 " %" PRIu64
            " %" PRIu64 " %d\n",
            static_cast<std::uint64_t>(s->id()),
            sock_state_name(s->state_), s->port_, s->peer_port_,
            s->rx_.size(), s->bytes_rx_, s->bytes_tx_, s->pkts_rx_,
            s->pkts_tx_, s->refs_.load(std::memory_order_relaxed));
  }
  return out;
}

std::string Net::format_listeners() {
  std::vector<std::shared_ptr<Socket>> snap;
  {
    std::lock_guard tlk(tab_mu_);
    snap.reserve(sockets_.size());
    for (const auto& [ino, s] : sockets_) snap.push_back(s);
  }
  std::string out = "ino port backlog queued\n";
  for (const std::shared_ptr<Socket>& s : snap) {
    std::lock_guard slk(s->mu_);
    if (s->state_ != SockState::kListening) continue;
    appendf(out, "%" PRIu64 " %u %d %zu\n",
            static_cast<std::uint64_t>(s->id()), s->port_, s->backlog_,
            s->accept_q_.size());
  }
  return out;
}

void Net::register_proc(fs::ProcFs& pfs) {
  pfs.add_file("/net/stats", [this] { return format_stats(); });
  pfs.add_file("/net/sockets", [this] { return format_sockets(); });
  pfs.add_file("/net/listeners", [this] { return format_listeners(); });
}

}  // namespace usk::net
