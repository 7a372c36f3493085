// Deterministic random number generation.
//
// All stochastic behaviour in the library (trace generation, tie-breaking,
// designated-switch election) flows through Rng so that a run is fully
// reproducible from a single seed. The core generator is SplitMix64: tiny,
// fast, and statistically adequate for simulation workloads.
//
// An Rng instance is mutable state and is NOT thread-safe. No component
// in this library holds process-global or std::mt19937 hidden RNG state —
// the topology builder, the workload generators and the graph partitioner
// all draw from a caller-owned `Rng&`. Independent consumers (the
// scenario runner's topology, workload and surge draws) derive disjoint
// generators from one master seed via `Rng::stream`, so adding a draw to
// one consumer never shifts another.
#pragma once

#include <cstdint>
#include <vector>

namespace lazyctrl {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Derives the `stream_id`-th decorrelated stream of `master_seed`:
  /// deterministic, and independent of how many values any other stream
  /// has consumed (unlike fork(), which depends on this stream's
  /// position). Distinct (master_seed, stream_id) pairs land in unrelated
  /// regions of the SplitMix64 sequence.
  static Rng stream(std::uint64_t master_seed,
                    std::uint64_t stream_id) noexcept;

  /// Next raw 64-bit value (SplitMix64 step).
  std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean) noexcept;

  /// Forks an independent stream; deterministic given this stream's state.
  Rng fork() noexcept;

  /// Raw generator position, for checkpoint/restore (src/ckpt): a
  /// generator rebuilt via Rng(state()) continues the exact sequence.
  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace lazyctrl
