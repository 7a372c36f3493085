#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace lazyctrl::obs {
namespace {

TEST(LogHistogramTest, BucketBoundariesExactBottomOctave) {
  // The bottom kSubBuckets values are exact: one bucket each, width 1.
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_lower_bound(v), v);
    EXPECT_EQ(LogHistogram::bucket_width(v), 1u);
  }
}

TEST(LogHistogramTest, BucketIndexMonotoneAtOctaveBoundaries) {
  // Indices are contiguous and lower bounds invert bucket_index at every
  // power of two (where the sub-bucket width doubles).
  std::size_t prev = 0;
  for (int shift = 5; shift < 64; ++shift) {
    const std::uint64_t v = std::uint64_t{1} << shift;
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_GT(idx, prev);
    EXPECT_EQ(LogHistogram::bucket_lower_bound(idx), v);
    EXPECT_EQ(LogHistogram::bucket_index(v - 1), idx - 1);
    prev = idx;
  }
  EXPECT_EQ(LogHistogram::bucket_index(~std::uint64_t{0}),
            LogHistogram::kBucketCount - 1);
}

TEST(LogHistogramTest, LowerBoundIsSmallestValueInBucket) {
  for (std::size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
    const std::uint64_t lo = LogHistogram::bucket_lower_bound(i);
    EXPECT_EQ(LogHistogram::bucket_index(lo), i) << "bucket " << i;
    if (lo > 0) {
      EXPECT_EQ(LogHistogram::bucket_index(lo - 1), i - 1) << "bucket " << i;
    }
  }
}

TEST(LogHistogramTest, EmptyHistogram) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(LogHistogramTest, SingleSampleAllQuantiles) {
  LogHistogram h;
  h.record(123456);
  // Every quantile of a one-sample distribution is that sample — the
  // [min, max] clamp makes the bucket midpoint collapse to it exactly.
  for (const double p : {0.0, 0.01, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(p), 123456.0) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 123456u);
  EXPECT_EQ(h.max(), 123456u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LogHistogramTest, ExactRangeQuantilesAreExact) {
  // Values below kSubBuckets land in width-1 buckets: quantiles of small
  // values have zero error.
  LogHistogram h;
  for (std::uint64_t v = 0; v < 20; ++v) h.record(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.05), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 9.0);   // rank 10 => value 9
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 19.0);
}

TEST(LogHistogramTest, QuantileRelativeErrorBounded) {
  // Log-bucketing promises <= 1/kSubBuckets relative error. Feed a
  // geometric-ish spread and compare against the exact nearest-rank
  // quantile.
  Rng rng(7);
  LogHistogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = 1 + rng.next_below(1u << 20);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::max<std::int64_t>(
            static_cast<std::int64_t>(
                std::ceil(p * static_cast<double>(values.size()))),
            1) -
        1);
    const double exact = static_cast<double>(values[rank]);
    const double approx = h.quantile(p);
    EXPECT_NEAR(approx, exact,
                exact / static_cast<double>(LogHistogram::kSubBuckets) + 1.0)
        << "p=" << p;
  }
}

TEST(LogHistogramTest, LargeValuesDoNotOverflowIndexing) {
  LogHistogram h;
  h.record(~std::uint64_t{0});
  h.record(std::uint64_t{1} << 63);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_GE(h.quantile(1.0), static_cast<double>(std::uint64_t{1} << 63));
}

TEST(LogHistogramTest, ResetClears) {
  LogHistogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h, LogHistogram{});
}

TEST(LogHistogramTest, ToJsonCarriesCountsAndPercentiles) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 1000);
  const std::string json = h.to_json();
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\": 1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 100000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\": [["), std::string::npos) << json;
}

}  // namespace
}  // namespace lazyctrl::obs
