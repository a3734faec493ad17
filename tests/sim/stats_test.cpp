#include "sim/stats.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace delta::sim {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
}

TEST(Accumulator, TracksMinMaxMeanSum) {
  Accumulator a;
  a.add(2);
  a.add(8);
  a.add(5);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 15.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
}

TEST(Accumulator, VarianceAndStddev) {
  Accumulator a;
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.stddev(), 0.0);
  a.add(5);
  EXPECT_EQ(a.variance(), 0.0);  // a single sample has no spread
  a.add(5);
  a.add(5);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);

  Accumulator b;
  // Population variance of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 4.
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) b.add(x);
  EXPECT_NEAR(b.variance(), 4.0, 1e-12);
  EXPECT_NEAR(b.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Accumulator, SingleSample) {
  Accumulator a;
  a.add(7.5);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 7.5);
  EXPECT_DOUBLE_EQ(a.min(), 7.5);
  EXPECT_DOUBLE_EQ(a.max(), 7.5);
  EXPECT_DOUBLE_EQ(a.sum(), 7.5);
  // Population variance of one sample is 0 (zero spread), per the
  // documented contract.
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, VarianceIsStableForLargeOffsets) {
  // Welford's update must not cancel catastrophically when the values
  // share a huge common offset.
  Accumulator a;
  const double offset = 1e12;
  for (double x : {1.0, 2.0, 3.0}) a.add(offset + x);
  EXPECT_NEAR(a.variance(), 2.0 / 3.0, 1e-6);
}

TEST(SampleSet, StddevMatchesAccumulator) {
  SampleSet s;
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
    a.add(x);
  }
  EXPECT_DOUBLE_EQ(s.stddev(), a.stddev());
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);

  // Bit for bit, with percentile() sorting the samples between adds: the
  // summary must be the Accumulator fed in insertion order, not one fed
  // in sorted order. The magnitudes are spread so that order shows.
  SampleSet t;
  Accumulator b;
  Rng rng(99);
  for (int i = 1; i <= 200; ++i) {
    const double x =
        (rng.uniform() - 0.25) * static_cast<double>(1u << rng.below(24));
    t.add(x);
    b.add(x);
    if (i % 7 == 0) (void)t.percentile(0.5);
    if (i % 50 == 0) {
      EXPECT_EQ(t.count(), b.count());
      EXPECT_EQ(t.mean(), b.mean()) << "after " << i;
      EXPECT_EQ(t.min(), b.min());
      EXPECT_EQ(t.max(), b.max());
      EXPECT_EQ(t.stddev(), b.stddev()) << "after " << i;
      EXPECT_EQ(t.summary().sum(), b.sum());
      EXPECT_EQ(t.summary().variance(), b.variance());
    }
  }
}

TEST(SampleSet, PercentileCacheSurvivesInterleavedAdds) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.95), 95.0);  // cached sort reused
  s.add(0.5);  // invalidates the cached order
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(SampleSet, PercentileCacheInvalidationUnderTightInterleaving) {
  // Alternate add()/percentile() on every step: each percentile() call
  // right after an add() must see the new sample, never a stale cached
  // sort order.
  SampleSet s;
  for (int i = 1; i <= 64; ++i) {
    s.add(65 - i);  // descending inserts keep the raw vector unsorted
    EXPECT_DOUBLE_EQ(s.percentile(0.0), static_cast<double>(65 - i));
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 64.0);
  }
  EXPECT_EQ(s.count(), 64u);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(SampleSet, PercentileOnEmpty) {
  SampleSet s;
  EXPECT_EQ(s.percentile(0.5), 0.0);
}

TEST(SampleSet, PercentileSingleSample) {
  // One sample is every percentile: rank ceil(p*1) is 0 or 1, both of
  // which must resolve to the only element.
  SampleSet s;
  s.add(42.0);
  for (const double p : {0.0, 0.01, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(s.percentile(p), 42.0) << "p=" << p;
}

TEST(SampleSet, PercentileClampsOutOfRangeP) {
  SampleSet s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), s.percentile(0.0));
  EXPECT_DOUBLE_EQ(s.percentile(1.5), s.percentile(1.0));
}

TEST(SampleSet, PercentileNearestRankTwoSamples) {
  // Nearest-rank on {1, 2}: rank ceil(0.5 * 2) = 1 -> the first
  // element, not an interpolation between the two.
  SampleSet s;
  s.add(2.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.51), 2.0);
}

TEST(Accumulator, EmptyIsAllZero) {
  // min()/max() guard the +/-infinity init values; a report must never
  // serialize an infinity for "no samples".
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, SingleSampleHasZeroSpread) {
  Accumulator a;
  a.add(-7.5);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), -7.5);
  EXPECT_DOUBLE_EQ(a.min(), -7.5);
  EXPECT_DOUBLE_EQ(a.max(), -7.5);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, NegativeValuesTrackMinMax) {
  Accumulator a;
  a.add(-3.0);
  a.add(-1.0);
  a.add(-2.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), -1.0);
  EXPECT_DOUBLE_EQ(a.mean(), -2.0);
}

TEST(Speedup, MatchesPaperFormulas) {
  // Table 5: (40523 - 27714) / 27714 = 46%.
  EXPECT_NEAR(speedup_percent(40523, 27714), 46.2, 0.1);
  // Table 5: 1830 / 1.3 ~ 1408X.
  EXPECT_NEAR(speedup_factor(1830, 1.3), 1407.7, 0.1);
  // Table 9: (55627 - 38508) / 38508 = 44%.
  EXPECT_NEAR(speedup_percent(55627, 38508), 44.5, 0.1);
}

TEST(Speedup, ZeroFastIsGuarded) {
  EXPECT_EQ(speedup_percent(10, 0), 0.0);
  EXPECT_EQ(speedup_factor(10, 0), 0.0);
}

}  // namespace
}  // namespace delta::sim
