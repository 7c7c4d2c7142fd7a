#include "metrics/metrics.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace usk::metrics {

namespace {

bool labels_equal(const Labels& a, const Labels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::strcmp(a[i].key, b[i].key) != 0) return false;
    if (a[i].value != b[i].value) return false;
  }
  return true;
}

void append_escaped(std::string& out, const std::string& v) {
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
}

/// `{k="v",...}` with optional extra pairs appended (le=, quantile=).
void append_labels(std::string& out, const Labels& labels,
                   const char* extra_key = nullptr,
                   const std::string& extra_val = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const Label& l : labels) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += "=\"";
    append_escaped(out, l.value);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_val;
    out += '"';
  }
  out += '}';
}

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[192];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

const char* kind_name(int k) {
  switch (k) {
    case 0: return "counter";
    case 1: return "gauge";
    case 2: return "histogram";
    default: return "untyped";
  }
}

}  // namespace

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Family& Registry::family_locked(const char* name, const char* help,
                                          Kind kind) {
  for (Family& f : families_) {
    if (std::strcmp(f.name, name) == 0 && f.kind == kind) return f;
  }
  families_.push_back(Family{name, help, kind, {}});
  return families_.back();
}

Registry::Series& Registry::series_locked(Family& fam, Labels&& labels) {
  for (Series& s : fam.series) {
    if (labels_equal(s.labels, labels)) return s;
  }
  fam.series.push_back(Series{});
  fam.series.back().labels = std::move(labels);
  return fam.series.back();
}

Counter& Registry::counter(const char* name, const char* help,
                           Labels labels) {
  std::lock_guard lk(mu_);
  Series& s =
      series_locked(family_locked(name, help, Kind::kCounter),
                    std::move(labels));
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& Registry::gauge(const char* name, const char* help, Labels labels) {
  std::lock_guard lk(mu_);
  Series& s = series_locked(family_locked(name, help, Kind::kGauge),
                            std::move(labels));
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& Registry::histogram(const char* name, const char* help,
                               Labels labels) {
  std::lock_guard lk(mu_);
  Series& s = series_locked(family_locked(name, help, Kind::kHistogram),
                            std::move(labels));
  if (!s.hist) s.hist = std::make_unique<Histogram>();
  return *s.hist;
}

std::string Registry::expose() const {
  std::string out;
  out.reserve(4096);
  std::lock_guard lk(mu_);
  for (const Family& f : families_) {
    out += "# HELP ";
    out += f.name;
    out += ' ';
    out += f.help;
    out += "\n# TYPE ";
    out += f.name;
    out += ' ';
    out += kind_name(static_cast<int>(f.kind));
    out += '\n';
    for (const Series& s : f.series) {
      switch (f.kind) {
        case Kind::kCounter: {
          out += f.name;
          append_labels(out, s.labels);
          appendf(out, " %" PRIu64 "\n", s.counter->value());
          break;
        }
        case Kind::kGauge: {
          out += f.name;
          append_labels(out, s.labels);
          appendf(out, " %" PRId64 "\n", s.gauge->value());
          break;
        }
        case Kind::kHistogram: {
          const trace::HistogramSnapshot h = s.hist->snapshot();
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            if (h.buckets[i] == 0) continue;
            cum += h.buckets[i];
            out += f.name;
            out += "_bucket";
            append_labels(out, s.labels, "le",
                          std::to_string(
                              trace::HistogramSnapshot::bucket_hi(i)));
            appendf(out, " %" PRIu64 "\n", cum);
          }
          out += f.name;
          out += "_bucket";
          append_labels(out, s.labels, "le", "+Inf");
          appendf(out, " %" PRIu64 "\n", h.count);
          out += f.name;
          out += "_sum";
          append_labels(out, s.labels);
          appendf(out, " %" PRIu64 "\n", h.sum);
          out += f.name;
          out += "_count";
          append_labels(out, s.labels);
          appendf(out, " %" PRIu64 "\n", h.count);
          // Summary-style quantiles from the SAME snapshot the
          // /proc/trace renderers percentile() from, so the two views
          // can never disagree.
          out += f.name;
          append_labels(out, s.labels, "quantile", "0.5");
          appendf(out, " %" PRIu64 "\n", h.percentile(50.0));
          out += f.name;
          append_labels(out, s.labels, "quantile", "0.99");
          appendf(out, " %" PRIu64 "\n", h.percentile(99.0));
          break;
        }
      }
    }
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lk(mu_);
  for (Family& f : families_) {
    for (Series& s : f.series) {
      if (s.counter) s.counter->reset();
      if (s.gauge) s.gauge->reset();
      if (s.hist) s.hist->reset();
    }
  }
}

}  // namespace usk::metrics
