#include "obs/snapshot.hpp"

#include <bit>
#include <ostream>

#include "obs/json.hpp"

namespace xentry::obs {

namespace {

/// Metric names are identifiers by convention, but lines must stay valid
/// JSON for any name.
void write_escaped(std::ostream& os, std::string_view s) {
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

void write_histogram_delta(std::ostream& os, const Log2Histogram& cur,
                           const Log2Histogram* prev) {
  const std::uint64_t count_delta = cur.count() - (prev ? prev->count() : 0);
  const std::uint64_t sum_delta = cur.sum() - (prev ? prev->sum() : 0);
  os << "{\"count\":" << count_delta << ",\"sum\":" << sum_delta;
  if (cur.count() > 0) {
    // Cumulative min/max: exact under merge because min/max only improve.
    os << ",\"min\":" << cur.min() << ",\"max\":" << cur.max();
  }
  os << ",\"buckets\":{";
  bool first = true;
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    const std::uint64_t d = cur.bucket(i) - (prev ? prev->bucket(i) : 0);
    if (d == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << Log2Histogram::bucket_lower_bound(i) << "\":" << d;
  }
  os << "}}";
}

}  // namespace

void SnapshotWriter::write(const MetricsRegistry& cur, bool force_full) {
  const bool full = force_full || !wrote_any_;
  os_ << "{\"seq\":" << seq_ << ",\"kind\":\"" << (full ? "full" : "delta")
      << "\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : cur.counters()) {
    const Counter* prev = full ? nullptr : prev_.find_counter(name);
    if (prev != nullptr && prev->value() == c.value()) continue;
    if (!first) os_ << ',';
    first = false;
    write_escaped(os_, name);
    os_ << ':' << (c.value() - (prev ? prev->value() : 0));
  }
  os_ << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : cur.gauges()) {
    const Gauge* prev = full ? nullptr : prev_.find_gauge(name);
    if (prev != nullptr && prev->value() == g.value()) continue;
    if (!first) os_ << ',';
    first = false;
    write_escaped(os_, name);
    os_ << ':' << g.value();
  }
  os_ << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : cur.histograms()) {
    const Log2Histogram* prev = full ? nullptr : prev_.find_histogram(name);
    // Buckets and sum can only move with count, so count is the dirty bit.
    if (prev != nullptr && prev->count() == h.count()) continue;
    if (!first) os_ << ',';
    first = false;
    write_escaped(os_, name);
    os_ << ':';
    write_histogram_delta(os_, h, prev);
  }
  os_ << "}}\n";
  os_.flush();
  prev_ = cur;
  ++seq_;
  wrote_any_ = true;
}

void SnapshotWriter::prime(const MetricsRegistry& restored,
                           std::uint64_t next_seq) {
  prev_ = restored;
  seq_ = next_seq;
  wrote_any_ = true;
}

std::vector<MetricsSnapshot> read_snapshots(std::string_view text) {
  std::vector<MetricsSnapshot> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) break;  // torn tail: no terminator
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::optional<JsonValue> v = parse_json(line);
    if (!v.has_value() || !v->is_object()) break;  // torn/corrupt: stop here
    MetricsSnapshot snap;
    snap.seq = v->get_uint("seq");
    snap.full = v->get_string("kind") == "full";
    if (const JsonValue* counters = v->get("counters")) {
      for (const auto& [name, val] : counters->as_object()) {
        snap.counters.emplace(name, val.as_uint());
      }
    }
    if (const JsonValue* gauges = v->get("gauges")) {
      for (const auto& [name, val] : gauges->as_object()) {
        snap.gauges.emplace(name, val.as_int());
      }
    }
    if (const JsonValue* hists = v->get("histograms")) {
      for (const auto& [name, hv] : hists->as_object()) {
        MetricsSnapshot::HistogramDelta d;
        d.count = hv.get_uint("count");
        d.sum = hv.get_uint("sum");
        d.min = hv.get_uint("min");
        d.max = hv.get_uint("max");
        if (const JsonValue* buckets = hv.get("buckets")) {
          for (const auto& [lb_str, n] : buckets->as_object()) {
            std::uint64_t lb = 0;
            for (char c : lb_str) {
              if (c < '0' || c > '9') {
                lb = ~std::uint64_t{0};
                break;
              }
              lb = lb * 10 + static_cast<std::uint64_t>(c - '0');
            }
            if (lb == ~std::uint64_t{0}) continue;
            // bucket_lower_bound is invertible: index = bit_width(lb).
            const int idx = static_cast<int>(std::bit_width(lb));
            if (idx < Log2Histogram::kNumBuckets) d.buckets[idx] = n.as_uint();
          }
        }
        snap.histograms.emplace(name, d);
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

MetricsRegistry merge_snapshots(const std::vector<MetricsSnapshot>& snaps) {
  // Replay from the last full snapshot: everything before it is
  // superseded state.
  std::size_t start = 0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (snaps[i].full) start = i;
  }
  MetricsRegistry reg;
  for (std::size_t i = start; i < snaps.size(); ++i) {
    const MetricsSnapshot& s = snaps[i];
    for (const auto& [name, delta] : s.counters) {
      reg.counter(name).inc(delta);
    }
    for (const auto& [name, value] : s.gauges) {
      reg.gauge(name).set(value);
    }
    for (const auto& [name, d] : s.histograms) {
      reg.histogram(name).merge_from(
          Log2Histogram::from_parts(d.buckets, d.count, d.sum, d.min, d.max));
    }
  }
  return reg;
}

bool is_timing_metric(std::string_view name) {
  // Wall-clock-derived families: latency histograms (…_ns/…_us) and
  // throughput rates (…per_sec, …elapsed…).  Plus the machine copy
  // counters (machine.…_words): they follow the snapshot buffers' reuse,
  // which a resumed or restarted process starts cold.
  return name.ends_with("_ns") || name.ends_with("_us") ||
         name.find("per_sec") != std::string_view::npos ||
         name.find("elapsed") != std::string_view::npos ||
         (name.starts_with("machine.") && name.ends_with("_words"));
}

MetricsRegistry strip_timing_metrics(const MetricsRegistry& reg) {
  MetricsRegistry out;
  for (const auto& [name, c] : reg.counters()) {
    if (!is_timing_metric(name)) out.counter(name).inc(c.value());
  }
  for (const auto& [name, g] : reg.gauges()) {
    if (!is_timing_metric(name)) out.gauge(name).set(g.value());
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (!is_timing_metric(name)) out.histogram(name).merge_from(h);
  }
  return out;
}

}  // namespace xentry::obs
