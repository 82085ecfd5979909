// Tests for the instrumentation layer: latency accumulators, measurement
// windows, per-tag breakdown, and the transient time series.
#include <gtest/gtest.h>

#include "stats/stats.hpp"
#include "stats/timeseries.hpp"

namespace ofar {
namespace {

TEST(LatencyAccum, MeanStddevMinMax) {
  LatencyAccum acc;
  for (u64 v : {10u, 20u, 30u}) acc.add(v);
  EXPECT_EQ(acc.count, 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 20.0);
  EXPECT_EQ(acc.min, 10u);
  EXPECT_EQ(acc.max, 30u);
  EXPECT_NEAR(acc.stddev(), 8.1649, 1e-3);
}

TEST(LatencyAccum, EmptyIsSafe) {
  LatencyAccum acc;
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Stats, AcceptedAndOfferedLoads) {
  Stats s;
  s.reset(1000);
  const u32 nodes = 10;
  for (int i = 0; i < 50; ++i) s.on_generated(8);
  for (int i = 0; i < 25; ++i) s.on_delivered(8, 100, 1000, 3);
  // 400 generated phits, 200 delivered phits over 40 cycles and 10 nodes.
  EXPECT_DOUBLE_EQ(s.offered_load(1040, nodes), 1.0);
  EXPECT_DOUBLE_EQ(s.accepted_load(1040, nodes), 0.5);
  EXPECT_DOUBLE_EQ(s.accepted_load(1000, nodes), 0.0);  // empty window
}

TEST(Stats, ResetClearsCounters) {
  Stats s;
  s.on_generated(8);
  s.on_delivered(8, 50, 0, 3);
  s.on_local_misroutes(1);
  s.on_ring_enters(/*first_entries=*/1, /*reentries=*/1);
  s.reset(500);
  EXPECT_EQ(s.generated_packets(), 0u);
  EXPECT_EQ(s.delivered_packets(), 0u);
  EXPECT_EQ(s.local_misroutes(), 0u);
  EXPECT_EQ(s.ring_entries(), 0u);
  EXPECT_EQ(s.ring_packets(), 0u);
  EXPECT_EQ(s.ring_reentries(), 0u);
  EXPECT_EQ(s.window_start(), 500u);
  EXPECT_EQ(s.latency().count, 0u);
}

TEST(Stats, RingUseFraction) {
  Stats s;
  s.reset(0);
  for (int i = 0; i < 10; ++i) s.on_delivered(8, 10, 0, 3);
  s.on_ring_enters(/*first_entries=*/2, /*reentries=*/0);
  EXPECT_DOUBLE_EQ(s.ring_use_fraction(), 0.2);
}

TEST(Stats, RingReentriesDoNotInflateUseFraction) {
  Stats s;
  s.reset(0);
  // Two delivered packets; one of them bounces on and off the ring three
  // times. The fraction counts distinct packets, so it stays at 0.5 (the
  // old raw-entries accounting would report 1.5).
  for (int i = 0; i < 2; ++i) s.on_delivered(8, 10, 0, 3);
  s.on_ring_enters(/*first_entries=*/1, /*reentries=*/2);
  EXPECT_EQ(s.ring_entries(), 3u);
  EXPECT_EQ(s.ring_packets(), 1u);
  EXPECT_EQ(s.ring_reentries(), 2u);
  EXPECT_DOUBLE_EQ(s.ring_use_fraction(), 0.5);
}

TEST(LatencyHistogram, OverflowCountAndClampPercentile) {
  LatencyHistogram h;
  EXPECT_EQ(h.overflow_count(), 0u);
  h.add(100);
  // 2^45 exceeds the top-bucket floor (2^38): clamped and counted.
  h.add(u64{1} << 45);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  // The clamp bucket reports its floor (a true lower bound), not a
  // fabricated midpoint.
  EXPECT_EQ(h.percentile(1.0),
            LatencyHistogram::bucket_floor(LatencyHistogram::kBuckets - 1));
  // A value that lands exactly in the top bucket without exceeding its
  // floor range is not an overflow.
  LatencyHistogram h2;
  h2.add(LatencyHistogram::bucket_floor(LatencyHistogram::kBuckets - 1));
  EXPECT_EQ(h2.overflow_count(), 0u);
  EXPECT_EQ(h2.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(TimeSeries, BucketsByCycle) {
  TimeSeries ts(1000, 500, 100);
  EXPECT_EQ(ts.num_buckets(), 5u);
  ts.record(1000, 10.0);
  ts.record(1099, 30.0);
  ts.record(1100, 7.0);
  ts.record(999, 99.0);   // before window: dropped
  ts.record(1500, 99.0);  // after window: dropped
  EXPECT_EQ(ts.bucket(0).count, 2u);
  EXPECT_DOUBLE_EQ(ts.bucket(0).mean(), 20.0);
  EXPECT_EQ(ts.bucket(1).count, 1u);
  EXPECT_DOUBLE_EQ(ts.bucket(1).mean(), 7.0);
  EXPECT_EQ(ts.bucket(4).count, 0u);
  EXPECT_DOUBLE_EQ(ts.bucket(4).mean(), 0.0);
}

TEST(TimeSeries, BucketMidpoints) {
  TimeSeries ts(2000, 300, 100);
  EXPECT_EQ(ts.bucket_mid(0), 2050u);
  EXPECT_EQ(ts.bucket_mid(2), 2250u);
}

TEST(Stats, SeriesSurvivesWindowReset) {
  Stats s;
  s.enable_timeseries(0, 1000, 100);
  s.on_delivered(8, 42, 50, 3);
  s.reset(500);
  s.on_delivered(8, 43, 550, 3);
  ASSERT_NE(s.series(), nullptr);
  EXPECT_EQ(s.series()->bucket(0).count, 1u);
  EXPECT_EQ(s.series()->bucket(5).count, 1u);
}

}  // namespace
}  // namespace ofar
