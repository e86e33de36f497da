// bf::obs metrics: bucket semantics, quantile estimation, concurrency,
// registry create-or-get, snapshot diff (with per-phase min/max).
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace bf::obs {
namespace {

TEST(Counter, IncrementValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.set(7.5);  // a level: the last set wins
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(HistogramTest, BucketUpperBoundsAreInclusive) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);  // exactly on a bound -> that bucket (le semantics)
  h.observe(1.5);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(7.0);  // beyond the last bound -> overflow bucket
  const HistogramData d = h.data();
  ASSERT_EQ(d.bucketCounts.size(), 4u);
  EXPECT_EQ(d.bucketCounts[0], 1u);
  EXPECT_EQ(d.bucketCounts[1], 2u);
  EXPECT_EQ(d.bucketCounts[2], 1u);
  EXPECT_EQ(d.bucketCounts[3], 1u);
  EXPECT_EQ(d.count, 5u);
  EXPECT_DOUBLE_EQ(d.sum, 16.5);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 7.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.3);
}

TEST(HistogramTest, EmptyHistogramIsZeroEverywhere) {
  Histogram h({1.0});
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 0u);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.max, 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.percentile(50.0), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesInsideBucket) {
  Histogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 10; ++i) h.observe(1.5);  // all land in (1, 2]
  const HistogramData d = h.data();
  // Rank interpolation inside the (1, 2] bucket: p50 at half the bucket.
  EXPECT_DOUBLE_EQ(d.percentile(50.0), 1.5);
  EXPECT_DOUBLE_EQ(d.percentile(100.0), 2.0);
}

TEST(HistogramTest, OverflowBucketReportsObservedMax) {
  Histogram h({1.0});
  h.observe(10.0);
  h.observe(20.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 20.0);
}

TEST(HistogramTest, ConcurrentObservesKeepExactCount) {
  Histogram h(Histogram::defaultLatencyBucketsMs());
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObservations; ++i) {
        h.observe(0.001 * ((t * kObservations + i) % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, static_cast<std::uint64_t>(kThreads) * kObservations);
  std::uint64_t inBuckets = 0;
  for (std::uint64_t b : d.bucketCounts) inBuckets += b;
  EXPECT_EQ(inBuckets, d.count);
}

TEST(Registry, CreateOrGetReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("bf_x_total", "first help wins");
  Counter& b = reg.counter("bf_x_total", "ignored");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  Histogram& h1 = reg.histogram("bf_x_ms", "", {1.0, 2.0});
  Histogram& h2 = reg.histogram("bf_x_ms");  // bounds ignored on re-get
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("bf_x_total");
  EXPECT_THROW(reg.gauge("bf_x_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("bf_x_total"), std::logic_error);
}

TEST(Registry, SnapshotIsNameSortedAndQueryable) {
  MetricsRegistry reg;
  reg.counter("bf_zz_total").inc(7);
  reg.gauge("bf_aa_depth").set(3.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].name, "bf_aa_depth");
  EXPECT_EQ(snap.metrics[1].name, "bf_zz_total");
  EXPECT_EQ(snap.counterValue("bf_zz_total"), 7u);
  EXPECT_EQ(snap.counterValue("bf_missing"), 0u);
  ASSERT_NE(snap.find("bf_aa_depth"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("bf_aa_depth")->gaugeValue, 3.0);
  EXPECT_EQ(snap.find("bf_missing"), nullptr);
}

TEST(Registry, DiffSubtractsCountersAndHistogramsKeepsGauges) {
  MetricsRegistry reg;
  Counter& c = reg.counter("bf_c_total");
  Gauge& g = reg.gauge("bf_g_depth");
  Histogram& h = reg.histogram("bf_h_ms", "", {1.0, 10.0});
  c.inc(5);
  g.set(2.0);
  h.observe(0.5);
  const MetricsSnapshot before = reg.snapshot();
  c.inc(3);
  g.set(9.0);
  h.observe(0.5);
  h.observe(5.0);
  const MetricsSnapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counterValue("bf_c_total"), 3u);
  EXPECT_DOUBLE_EQ(delta.find("bf_g_depth")->gaugeValue, 9.0);  // level, not rate
  const HistogramData& hd = delta.find("bf_h_ms")->histogram;
  EXPECT_EQ(hd.count, 2u);
  EXPECT_EQ(hd.bucketCounts[0], 1u);
  EXPECT_EQ(hd.bucketCounts[1], 1u);
  EXPECT_DOUBLE_EQ(hd.sum, 5.5);
}

TEST(Registry, DiffedPercentilesReportOnlyThePhasesOwnExtremes) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bf_h_ms", "", {100.0, 250.0, 500.0});
  const auto phase = [&](std::initializer_list<double> values) {
    const MetricsSnapshot before = reg.snapshot();
    for (const double v : values) h.observe(v);
    return reg.snapshot().diff(before).find("bf_h_ms")->histogram;
  };
  h.observe(1000.0);  // phase 1 sets the process-wide max

  // Phase 2 stays below that max: its p99 must not read phase 1's 1000.
  const HistogramData second = phase({600.0});
  EXPECT_DOUBLE_EQ(second.percentile(99.0), 500.0);
  EXPECT_DOUBLE_EQ(second.max, 500.0);  // the overflow bucket's finite edge
  EXPECT_DOUBLE_EQ(second.min, 600.0);  // phase 2 lowered the min: exact

  // Extremes the phase did not move read its outermost buckets' edges.
  const HistogramData overflowOnly = phase({700.0, 650.0});
  EXPECT_DOUBLE_EQ(overflowOnly.min, 500.0);
  EXPECT_DOUBLE_EQ(overflowOnly.max, 500.0);
  EXPECT_DOUBLE_EQ(phase({150.0}).min, 150.0);  // lowered: exact
  const HistogramData finite = phase({200.0, 300.0});
  EXPECT_DOUBLE_EQ(finite.min, 100.0);
  EXPECT_DOUBLE_EQ(finite.max, 500.0);
  EXPECT_DOUBLE_EQ(phase({50.0}).min, 50.0);  // lowered: exact
  const HistogramData firstBucket = phase({80.0});
  EXPECT_DOUBLE_EQ(firstBucket.min, 100.0);
  EXPECT_DOUBLE_EQ(firstBucket.max, 100.0);

  // A phase that moves both extremes reports them exactly.
  const HistogramData both = phase({2000.0, 10.0});
  EXPECT_DOUBLE_EQ(both.max, 2000.0);
  EXPECT_DOUBLE_EQ(both.min, 10.0);
  EXPECT_DOUBLE_EQ(both.percentile(99.0), 2000.0);

  // A phase with no observations reads zero everywhere.
  const HistogramData empty = phase({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(99.0), 0.0);
}

TEST(Registry, ProcessWideRegistryIsASingleton) {
  EXPECT_EQ(&registry(), &registry());
}

}  // namespace
}  // namespace bf::obs
