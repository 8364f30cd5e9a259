#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

namespace xentry::obs {
namespace {

TEST(CounterTest, IncrementAndMerge) {
  Counter a, b;
  a.inc();
  a.inc(41);
  b.inc(8);
  EXPECT_EQ(a.value(), 42u);
  a.merge_from(b);
  EXPECT_EQ(a.value(), 50u);
}

TEST(GaugeTest, SetOverwritesAndMergeSums) {
  Gauge g, h;
  g.set(3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  h.set(10);
  g.merge_from(h);
  EXPECT_EQ(g.value(), 3);
}

TEST(Log2HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i - 1].
  Log2Histogram h;
  h.observe(0);
  EXPECT_EQ(h.bucket(0), 1u);
  h.observe(1);
  EXPECT_EQ(h.bucket(1), 1u);
  h.observe(2);
  h.observe(3);
  EXPECT_EQ(h.bucket(2), 2u);
  h.observe(4);
  h.observe(7);
  EXPECT_EQ(h.bucket(3), 2u);
  h.observe(8);
  EXPECT_EQ(h.bucket(4), 1u);
  h.observe(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket(64), 1u);

  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());

  // The static bounds agree with where observe actually lands values.
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(0), 0u);
  for (int i = 1; i < Log2Histogram::kNumBuckets; ++i) {
    Log2Histogram probe;
    probe.observe(Log2Histogram::bucket_lower_bound(i));
    probe.observe(Log2Histogram::bucket_upper_bound(i));
    EXPECT_EQ(probe.bucket(i), 2u) << "bucket " << i;
  }
}

TEST(Log2HistogramTest, MergePreservesMomentsAndExtremes) {
  Log2Histogram a, b;
  a.observe(5);
  a.observe(100);
  b.observe(3);
  b.observe(70000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 5u + 100u + 3u + 70000u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 70000u);
  // Merging an empty histogram must not clobber min/max.
  Log2Histogram empty;
  a.merge_from(empty);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 70000u);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  // Force rebalancing-ish churn; node-based storage keeps &c valid.
  for (int i = 0; i < 100; ++i) {
    reg.counter("name_" + std::to_string(i));
  }
  c.inc(7);
  EXPECT_EQ(reg.find_counter("a")->value(), 7u);
  EXPECT_EQ(&reg.counter("a"), &c);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

std::string registry_json(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

/// The determinism contract: distributing one observation stream over K
/// shard registries and merging in shard order yields byte-identical
/// exports for any K.  Mirrors how run_campaign merges per-shard metrics.
TEST(MetricsRegistryTest, MergeDeterministicAcrossShardCounts) {
  // A synthetic observation stream with enough spread to hit many
  // buckets; derived deterministically from the index.
  struct Obs {
    std::uint64_t histogram_value;
    bool bump_counter;
  };
  std::vector<Obs> stream;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    stream.push_back({x >> (x % 50), (x & 3) == 0});
  }

  std::string baseline;
  for (int shards : {1, 2, 7}) {
    std::vector<MetricsRegistry> regs(static_cast<std::size_t>(shards));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      MetricsRegistry& reg = regs[i % static_cast<std::size_t>(shards)];
      reg.histogram("h").observe(stream[i].histogram_value);
      if (stream[i].bump_counter) reg.counter("c").inc();
      reg.gauge("g").set(1);  // per-shard contribution; merged = shard count
    }
    MetricsRegistry merged;
    for (const MetricsRegistry& reg : regs) merged.merge_from(reg);
    // Gauges sum across shards by design, so normalize before comparing.
    merged.gauge("g").set(1);
    const std::string json = registry_json(merged);
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "shards=" << shards;
    }
  }
  EXPECT_NE(baseline.find("\"counters\""), std::string::npos);
  EXPECT_NE(baseline.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, JsonIsSortedAndEscaped) {
  MetricsRegistry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc(2);
  reg.counter("quote\"key").inc(3);
  const std::string json = registry_json(reg);
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
  EXPECT_NE(json.find("quote\\\"key"), std::string::npos);
}

TEST(Log2HistogramTest, PercentileEmptyAndSingleValue) {
  Log2Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.observe(42);
  // One observation: every quantile is that value (the min/max clamp
  // collapses the bucket interpolation).
  EXPECT_EQ(h.percentile(0.0), 42.0);
  EXPECT_EQ(h.percentile(0.5), 42.0);
  EXPECT_EQ(h.percentile(1.0), 42.0);
}

TEST(Log2HistogramTest, PercentileWalksBucketsInOrder) {
  Log2Histogram h;
  // 100 values: 90 small (bucket of 1) and 10 large (bucket of 1024).
  for (int i = 0; i < 90; ++i) h.observe(1);
  for (int i = 0; i < 10; ++i) h.observe(1024);
  EXPECT_EQ(h.percentile(0.5), 1.0);   // rank 49.5 sits in the small mass
  EXPECT_GE(h.percentile(0.95), 1024.0);  // rank 94.05 is in the large mass
  EXPECT_LE(h.percentile(0.95), 2047.0);  // ...and within its bucket range
  EXPECT_LE(h.percentile(0.99), h.max());
  // Quantiles are monotone in q.
  EXPECT_LE(h.percentile(0.5), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

TEST(Log2HistogramTest, PercentileClampedToObservedRange) {
  Log2Histogram h;
  h.observe(1000);
  h.observe(1030);
  // Both land in bucket [1024's neighborhood]: interpolation must not
  // leave [min, max].
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GE(h.percentile(q), 1000.0);
    EXPECT_LE(h.percentile(q), 1030.0);
  }
}

TEST(Log2HistogramTest, JsonHasPercentilesWhenNonEmpty) {
  Log2Histogram h;
  std::ostringstream empty_os;
  h.write_json(empty_os);
  EXPECT_EQ(empty_os.str().find("\"p50\""), std::string::npos);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<std::uint64_t>(i));
  std::ostringstream os;
  h.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
}

TEST(MetricsRegistryTest, RegistryJsonIncludesHistogramPercentiles) {
  MetricsRegistry reg;
  for (int i = 0; i < 32; ++i) reg.histogram("lat").observe(8);
  const std::string json = registry_json(reg);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 8.0"), std::string::npos);
}

TEST(MetricsRegistryTest, MergeAdoptsMetricsAbsentOnOneSide) {
  MetricsRegistry a, b;
  a.counter("only_a").inc(1);
  b.counter("only_b").inc(2);
  b.histogram("h").observe(9);
  a.merge_from(b);
  EXPECT_EQ(a.find_counter("only_a")->value(), 1u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 2u);
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

TEST(MedianTest, MedianOfSortedAndUnsorted) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({5.0}), 5.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StragglerTest, FlagsBelowFractionOfMedian) {
  const auto flags = flag_stragglers({10.0, 9.0, 2.0, 11.0}, 0.5);
  EXPECT_EQ(flags, (std::vector<bool>{false, false, true, false}));
}

TEST(StragglerTest, EdgeCasesFlagNothing) {
  // Disabled threshold, a lone shard, and all shards stuck (median 0)
  // produce no straggler flags.
  EXPECT_EQ(flag_stragglers({1.0, 100.0}, 0.0),
            (std::vector<bool>{false, false}));
  EXPECT_EQ(flag_stragglers({1.0}, 0.5), (std::vector<bool>{false}));
  EXPECT_EQ(flag_stragglers({0.0, 0.0, 0.0}, 0.5),
            (std::vector<bool>{false, false, false}));
}

}  // namespace
}  // namespace xentry::obs
