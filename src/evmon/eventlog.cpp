#include "evmon/eventlog.hpp"

#include <cstring>
#include <type_traits>

namespace usk::evmon {

namespace {
constexpr std::uint32_t kMagic = 0x4B4C4F47;  // "KLOG"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
bool get(const std::vector<std::uint8_t>& in, std::size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}
}  // namespace

std::uint32_t LogWriter::intern(const char* file) {
  std::string name = file != nullptr ? file : "?";
  auto it = file_idx_.find(name);
  if (it != file_idx_.end()) return it->second;
  auto idx = static_cast<std::uint32_t>(files_.size());
  files_.push_back(name);
  file_idx_.emplace(std::move(name), idx);
  return idx;
}

void LogWriter::append(const Event& e) {
  LogRecord r;
  r.object = reinterpret_cast<std::uint64_t>(e.object);
  r.seq = e.seq;
  r.type = e.type;
  r.line = e.line;
  r.file_idx = intern(e.file);
  records_.push_back(r);
}

std::vector<std::uint8_t> LogWriter::serialize() const {
  std::vector<std::uint8_t> out;
  put(out, kMagic);
  put(out, kVersion);
  put(out, static_cast<std::uint32_t>(files_.size()));
  put(out, static_cast<std::uint64_t>(records_.size()));
  for (const std::string& f : files_) {
    put(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  for (const LogRecord& r : records_) put(out, r);
  return out;
}

bool LogReader::parse(const std::vector<std::uint8_t>& image) {
  files_.clear();
  records_.clear();
  std::size_t pos = 0;
  std::uint32_t magic = 0, version = 0, nfiles = 0;
  std::uint64_t nrecords = 0;
  if (!get(image, &pos, &magic) || magic != kMagic) return false;
  if (!get(image, &pos, &version) || version != kVersion) return false;
  if (!get(image, &pos, &nfiles)) return false;
  if (!get(image, &pos, &nrecords)) return false;
  // Sanity bound: records cannot exceed what the image could hold.
  if (nrecords > image.size() / sizeof(LogRecord) + 1) return false;

  files_.reserve(nfiles);
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    std::uint32_t len = 0;
    if (!get(image, &pos, &len)) return false;
    if (pos + len > image.size()) return false;
    files_.emplace_back(reinterpret_cast<const char*>(image.data() + pos),
                        len);
    pos += len;
  }
  records_.reserve(nrecords);
  for (std::uint64_t i = 0; i < nrecords; ++i) {
    LogRecord r;
    if (!get(image, &pos, &r)) return false;
    if (r.file_idx >= files_.size()) return false;
    records_.push_back(r);
  }
  return true;
}

Event LogReader::to_event(const LogRecord& r) const {
  Event e;
  e.object = reinterpret_cast<void*>(r.object);
  e.type = r.type;
  e.line = r.line;
  e.file = files_[r.file_idx].c_str();
  e.seq = r.seq;
  return e;
}

void LogReader::replay(MonitorBase& monitor) const {
  for (const LogRecord& r : records_) monitor.feed(to_event(r));
}

}  // namespace usk::evmon
