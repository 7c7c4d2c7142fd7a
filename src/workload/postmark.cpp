#include "workload/postmark.hpp"

#include <algorithm>

namespace usk::workload {

constexpr std::size_t kIoBlock = 512;
/// Probability (percent) that a transaction's I/O half is a read (vs
/// append), and that its file half is a create (vs delete).
constexpr std::uint64_t kReadBias = 50;
constexpr std::uint64_t kCreateBias = 50;

std::string PostMark::file_path(std::size_t idx) const {
  return cfg_.dir + "/pmfile" + std::to_string(idx);
}

void PostMark::create_file(uk::Proc& p, std::size_t idx, base::Rng& rng,
                           PostMarkReport* rep) {
  std::string path = file_path(idx);
  int fd = p.open(path.c_str(), fs::kOWrOnly | fs::kOCreat | fs::kOTrunc);
  if (fd < 0) {
    ++rep->errors;
    return;
  }
  std::size_t size = rng.range(cfg_.min_size, cfg_.max_size);
  std::vector<std::byte> block(kIoBlock);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::byte>(rng.next() & 0xff);
  }
  std::size_t written = 0;
  while (written < size) {
    std::size_t chunk = std::min(kIoBlock, size - written);
    SysRet n = p.write(fd, block.data(), chunk);
    if (n <= 0) {
      ++rep->errors;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  p.close(fd);
  rep->bytes_written += written;
  ++rep->created;
  live_.push_back(idx);
}

PostMarkReport PostMark::run(uk::Proc& p) {
  PostMarkReport rep;
  base::Rng rng(cfg_.seed);
  live_.clear();
  next_idx_ = 0;

  p.mkdir(cfg_.dir.c_str());

  // Phase 1: create the initial pool.
  for (std::size_t i = 0; i < cfg_.file_count; ++i) {
    create_file(p, next_idx_++, rng, &rep);
  }

  // Phase 2: transactions.
  std::vector<std::byte> iobuf(kIoBlock);
  for (std::size_t t = 0; t < cfg_.transactions && !live_.empty(); ++t) {
    // I/O half: read or append a random live file.
    std::size_t pick = live_[rng.below(live_.size())];
    std::string path = file_path(pick);
    if (rng.chance(kReadBias, 100)) {
      int fd = p.open(path.c_str(), fs::kORdOnly);
      if (fd >= 0) {
        SysRet n;
        while ((n = p.read(fd, iobuf.data(), iobuf.size())) > 0) {
          rep.bytes_read += static_cast<std::uint64_t>(n);
        }
        p.close(fd);
        ++rep.reads;
      } else {
        ++rep.errors;
      }
    } else {
      int fd = p.open(path.c_str(), fs::kOWrOnly | fs::kOAppend);
      if (fd >= 0) {
        SysRet n = p.write(fd, iobuf.data(), iobuf.size());
        if (n > 0) rep.bytes_written += static_cast<std::uint64_t>(n);
        p.close(fd);
        ++rep.appends;
      } else {
        ++rep.errors;
      }
    }

    // File half: create or delete.
    if (rng.chance(kCreateBias, 100)) {
      create_file(p, next_idx_++, rng, &rep);
    } else {
      std::size_t vi = rng.below(live_.size());
      std::string victim = file_path(live_[vi]);
      if (p.unlink(victim.c_str()) == 0) {
        ++rep.deleted;
        live_[vi] = live_.back();
        live_.pop_back();
      } else {
        ++rep.errors;
      }
    }
  }

  // Phase 3: delete remaining files.
  for (std::size_t idx : live_) {
    std::string path = file_path(idx);
    if (p.unlink(path.c_str()) == 0) {
      ++rep.deleted;
    } else {
      ++rep.errors;
    }
  }
  live_.clear();
  p.rmdir(cfg_.dir.c_str());
  return rep;
}

}  // namespace usk::workload
