#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace lazyctrl {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

TimeBucketSeries::TimeBucketSeries(SimDuration bucket_width,
                                   SimDuration horizon)
    : width_(bucket_width) {
  assert(bucket_width > 0 && horizon > 0);
  const auto n = static_cast<std::size_t>((horizon + bucket_width - 1) /
                                          bucket_width);
  buckets_.resize(std::max<std::size_t>(n, 1));
}

double TimeBucketSeries::bucket_sum(std::size_t i) const {
  return buckets_.at(i).sum;
}

std::uint64_t TimeBucketSeries::bucket_events(std::size_t i) const {
  return buckets_.at(i).events;
}

double TimeBucketSeries::bucket_mean(std::size_t i) const {
  const Bucket& b = buckets_.at(i);
  return b.events ? b.sum / static_cast<double>(b.events) : 0.0;
}

double TimeBucketSeries::bucket_rate_per_sec(std::size_t i) const {
  return static_cast<double>(buckets_.at(i).events) / to_seconds(width_);
}

std::string TimeBucketSeries::bucket_label_hours(std::size_t i) const {
  const auto lo = static_cast<long long>(
      static_cast<SimDuration>(i) * width_ / kHour);
  const auto hi = static_cast<long long>(
      static_cast<SimDuration>(i + 1) * width_ / kHour);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

double QuantileSketch::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[rank];
}

double QuantileSketch::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

}  // namespace lazyctrl
