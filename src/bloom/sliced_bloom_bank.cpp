#include "bloom/sliced_bloom_bank.h"

#include <algorithm>
#include <cassert>

namespace lazyctrl::bloom {

SlicedBloomBank::SlicedBloomBank(BloomParameters per_filter_params)
    : params_(per_filter_params),
      // Exactly BloomFilter's rounding: words = (max(bits,64)+63)/64,
      // bit_count = words * 64 — range_map must agree bit for bit.
      bits_(((std::max<std::size_t>(per_filter_params.bits, 64) + 63) / 64) *
            64),
      hashes_(std::clamp<std::size_t>(per_filter_params.hash_count, 1,
                                      kMaxHashes)) {}

void SlicedBloomBank::grow_row_stride(std::size_t new_stride) {
  const std::size_t old_stride = bytes_per_row_;
  bytes_per_row_ = new_stride;
  if (slices_.empty()) return;  // no data to re-layout yet
  // The new bytes of every row are the all-zero columns beyond the live
  // count.
  std::vector<std::uint8_t> laid(bits_ * new_stride + kTailPadding, 0);
  for (std::size_t r = 0; r < bits_; ++r) {
    std::copy_n(
        slices_.begin() + static_cast<std::ptrdiff_t>(r * old_stride),
        old_stride, laid.begin() + static_cast<std::ptrdiff_t>(r * new_stride));
  }
  slices_ = std::move(laid);
}

void SlicedBloomBank::reserve_columns(std::size_t n) {
  const std::size_t target = std::max<std::size_t>(1, (n + 7) / 8);
  if (target > bytes_per_row_) grow_row_stride(target);
}

void SlicedBloomBank::append_filter(SwitchId peer,
                                    const std::vector<MacAddress>& hosts) {
  assert(peers_.empty() || peers_.back() < peer);
  const std::size_t slot = peers_.size();
  if (slot + 1 > bytes_per_row_ * 8) grow_row_stride(bytes_per_row_ + 1);
  if (slices_.empty()) {
    slices_.assign(bits_ * bytes_per_row_ + kTailPadding, 0);
  }
  peers_.push_back(peer);
  // Every column at or beyond the live count is all-zero, so the new last
  // column only needs its set bits written.
  const std::size_t stride = bytes_per_row_;
  const std::size_t byte = slot >> 3;
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << (slot & 7));
  for (const MacAddress mac : hosts) {
    const BloomHash h = BloomHash::of(mac);
    std::uint64_t idx = h.h1;
    for (std::size_t i = 0; i < hashes_; ++i) {
      slices_[range_map(idx) * stride + byte] |= bit;
      idx += h.h2;
    }
  }
}

void SlicedBloomBank::clear() {
  peers_.clear();
  bytes_per_row_ = 1;
  // Keep the heap buffer for the clear-then-rebuild cycle; the next
  // append re-zeros exactly the range the (possibly reserved) stride
  // needs.
  slices_.clear();
}

}  // namespace lazyctrl::bloom
