#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace xentry::obs {

namespace {

/// map::operator[] with heterogeneous lookup (no temporary string on hit).
template <typename Map>
typename Map::mapped_type& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

template <typename Map>
const typename Map::mapped_type* find_only(const Map& map,
                                           std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Log2Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_only(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_only(gauges_, name);
}

const Log2Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  return find_only(histograms_, name);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].merge_from(c);
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].merge_from(g);
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge_from(h);
  }
}

namespace {

/// Metric names are identifiers by convention, but export must stay valid
/// JSON for any name.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char hex[] = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

double Log2Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (0-based, midpoint convention keeps
  // p50 of a symmetric distribution in the middle bucket).
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double lo_rank = static_cast<double>(cum);
    cum += buckets_[i];
    if (rank >= static_cast<double>(cum)) continue;
    // Interpolate within the bucket's value range by rank position.
    const double frac =
        buckets_[i] == 1
            ? 0.0
            : (rank - lo_rank) / static_cast<double>(buckets_[i] - 1);
    const double lo = static_cast<double>(bucket_lower_bound(i));
    const double hi = static_cast<double>(bucket_upper_bound(i));
    double v = lo + frac * (hi - lo);
    // Clamp to the observed envelope: the extreme buckets are bounded by
    // the true min/max, not their power-of-two edges.
    if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
    if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
    return v;
  }
  return static_cast<double>(max_);
}

void Log2Histogram::write_json(std::ostream& os) const {
  os << "{\"count\": " << count_ << ", \"sum\": " << sum_;
  if (count_ > 0) {
    os << ", \"min\": " << min_ << ", \"max\": " << max_;
    // Fixed precision keeps the export byte-stable across libc float
    // formatting defaults.
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ", \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f",
                  percentile(0.50), percentile(0.95), percentile(0.99));
    os << buf;
  }
  os << ", \"buckets\": {";
  bool bfirst = true;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (!bfirst) os << ", ";
    bfirst = false;
    os << '"' << bucket_lower_bound(i) << '"' << ": " << buckets_[i];
  }
  os << "}}";
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << c.value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << g.value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": ";
    h.write_json(os);
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<bool> flag_stragglers(const std::vector<double>& rates,
                                  double fraction) {
  std::vector<bool> flagged(rates.size(), false);
  if (fraction <= 0.0 || rates.size() < 2) return flagged;
  const double med = median(rates);
  if (!(med > 0.0)) return flagged;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    flagged[i] = rates[i] < fraction * med;
  }
  return flagged;
}

}  // namespace xentry::obs
