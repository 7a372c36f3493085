// LogHistogram — fixed-size log-bucketed (HDR-style) histogram.
//
// Values (uint64, typically nanoseconds) land in one of kBucketCount
// buckets: the bottom kSubBuckets values are exact, and every octave
// above is split into kSubBuckets equal-width sub-buckets, bounding the
// relative quantile error at 1/kSubBuckets (~3%). record() is O(1) and
// never allocates — the bucket array is inline — so histograms can sit
// on the datapath side of an enable-flag branch.
//
// This is the scale-proof replacement for the exact sample-storing
// QuantileSketch (common/stats.h): constant 15 KiB regardless of sample
// count, where the sketch grows by 8 B per record.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>

namespace lazyctrl::obs {

class LogHistogram {
 public:
  static constexpr std::size_t kSubBits = 5;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  /// Octaves above the exact range; with the exact bottom octave the
  /// index space covers every uint64 value.
  static constexpr std::size_t kOctaves = 64 - kSubBits;
  static constexpr std::size_t kBucketCount = (kOctaves + 1) * kSubBuckets;

  /// Bucket holding `v`. Monotone in `v`, contiguous from 0.
  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - static_cast<int>(kSubBits);
    const auto sub =
        static_cast<std::size_t>((v >> shift) & (kSubBuckets - 1));
    return static_cast<std::size_t>(shift + 1) * kSubBuckets + sub;
  }

  /// Smallest value mapping to bucket `i`.
  [[nodiscard]] static constexpr std::uint64_t bucket_lower_bound(
      std::size_t i) noexcept {
    const std::size_t octave = i >> kSubBits;
    const std::uint64_t sub = i & (kSubBuckets - 1);
    if (octave == 0) return sub;
    return (kSubBuckets + sub) << (octave - 1);
  }

  /// Width of bucket `i` (1 for the exact bottom octave).
  [[nodiscard]] static constexpr std::uint64_t bucket_width(
      std::size_t i) noexcept {
    const std::size_t octave = i >> kSubBits;
    return octave == 0 ? 1 : std::uint64_t{1} << (octave - 1);
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void reset() noexcept { *this = LogHistogram{}; }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Smallest / largest recorded value (0 when empty).
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t i) const noexcept {
    return buckets_[i];
  }

  /// Nearest-rank quantile, p in [0, 1]. Returns the midpoint of the
  /// holding bucket clamped to the observed [min, max] (so single-sample
  /// and exact-range values come back exactly); 0 when empty.
  [[nodiscard]] double quantile(double p) const noexcept;

  /// {"count": .., "sum": .., "min": .., "max": .., "p50": .., ...,
  ///  "buckets": [[lower_bound, count], ...]} — non-empty buckets only.
  [[nodiscard]] std::string to_json() const;

  bool operator==(const LogHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

static_assert(LogHistogram::bucket_index(0) == 0);
static_assert(LogHistogram::bucket_index(LogHistogram::kSubBuckets - 1) ==
              LogHistogram::kSubBuckets - 1);
static_assert(LogHistogram::bucket_index(LogHistogram::kSubBuckets) ==
              LogHistogram::kSubBuckets);
static_assert(LogHistogram::bucket_index(~std::uint64_t{0}) ==
              LogHistogram::kBucketCount - 1);
static_assert(LogHistogram::bucket_lower_bound(LogHistogram::kSubBuckets) ==
              LogHistogram::kSubBuckets);

}  // namespace lazyctrl::obs
