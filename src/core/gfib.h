// G-FIB: Group Forwarding Information Base (paper §III-D2).
//
// In the paper every edge switch keeps one Bloom filter per group peer,
// each a replica of that peer's L-FIB. Queries return the peers that may
// host a MAC; an empty result proves the destination is outside the
// group and the packet must go to the controller.
//
// All S members of a group hold the same filters except their own, so
// the simulator stores ONE bank per group (GFibBank, owned by
// core::Network and rebuilt from scratch by Network::rebuild_group_fib)
// with a filter for every member. A switch's GFib is a view of its
// group's bank that drops the switch's own filter from every answer.
// Because the L-FIB check runs first, that is exactly the per-switch
// G-FIB's answer, false positives included.
//
// Two interchangeable storage layouts back the bank (Config.fib.layout):
// the linear per-peer BloomBank of the paper, and the bit-sliced
// SlicedBloomBank whose scan cost is O(k) cache lines regardless of group
// size. Both produce bit-identical candidate sets for the same
// BloomParameters/BloomHash (tests/sliced_bank_test.cpp).
//
// Storage figures stay the paper's per-switch ones: GFib::storage_bytes()
// models the S-1 peer filters a real switch would hold in the chosen
// layout, whatever the simulator shares.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "bloom/bloom_bank.h"
#include "bloom/sliced_bloom_bank.h"
#include "common/ids.h"
#include "common/mac.h"
#include "core/config.h"

namespace lazyctrl::core {

/// One group's Bloom bank: a filter per member, in ascending id order.
class GFibBank {
 public:
  explicit GFibBank(BloomParameters params = {},
                    GFibLayout layout = GFibLayout::kSliced)
      : layout_(layout), linear_(params), sliced_(params) {}

  /// Drops every filter ahead of a rebuild of `members` appends (the
  /// sliced layout sizes its rows once for that many columns).
  void clear(std::size_t members) {
    if (layout_ == GFibLayout::kSliced) {
      sliced_.clear();
      sliced_.reserve_columns(members);
    } else {
      linear_.clear();
    }
  }

  /// Appends the filter summarising `member`'s MACs. Members arrive in
  /// ascending id order, so neither layout ever shifts a column.
  void append(SwitchId member, const std::vector<MacAddress>& macs) {
    if (layout_ == GFibLayout::kSliced) {
      sliced_.append_filter(member, macs);
    } else {
      linear_.build_filter(member, macs);
    }
  }

  /// Appends the members (ascending id order, `self` skipped) whose
  /// filter may hold the key hashed into `h`. Allocation-free given
  /// spare capacity in `out`.
  void query_into(BloomHash h, SwitchId self,
                  std::vector<SwitchId>& out) const {
    if (layout_ == GFibLayout::kSliced) {
      sliced_.query_into(h, out, self);
    } else {
      linear_.query_into(h, out, self);
    }
  }

  [[nodiscard]] bool has_member(SwitchId s) const {
    if (layout_ == GFibLayout::kLinear) return linear_.has_filter(s);
    const std::vector<SwitchId>& m = sliced_.peers();
    return std::binary_search(m.begin(), m.end(), s);
  }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return layout_ == GFibLayout::kSliced ? sliced_.filter_count()
                                          : linear_.filter_count();
  }
  /// What this shared bank really occupies.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return layout_ == GFibLayout::kSliced ? sliced_.storage_bytes()
                                          : linear_.storage_bytes();
  }
  /// The paper's per-switch figure: `peers` filters of the rounded
  /// filter size, linear as (S-1) arrays, sliced as one row per filter
  /// bit with ⌈(S-1)/8⌉ peer bytes each.
  [[nodiscard]] std::size_t peer_storage_bytes(
      std::size_t peers) const noexcept {
    // Both layouts round the filter size alike (BloomFilter's rounding).
    const std::size_t bits = sliced_.bit_count();
    if (peers == 0) return 0;
    return layout_ == GFibLayout::kSliced ? bits * ((peers + 7) / 8)
                                          : bits / 8 * peers;
  }

 private:
  GFibLayout layout_;
  // Only the selected layout is ever populated; the idle one stays empty
  // (a BloomBank holds no storage until a filter is built, a
  // SlicedBloomBank none until a column is appended).
  BloomBank linear_;
  bloom::SlicedBloomBank sliced_;
};

/// A switch's G-FIB: its group's bank minus its own filter.
class GFib {
 public:
  explicit GFib(SwitchId self) : self_(self) {}

  /// Points this view at `bank` (null detaches: no peers).
  void attach(const GFibBank* bank) noexcept { bank_ = bank; }
  [[nodiscard]] const GFibBank* bank() const noexcept { return bank_; }

  /// Allocation-free hot-path query: appends candidate peers (ascending
  /// id order, never this switch) into `out`; `h` is the precomputed
  /// hash of the queried MAC so all filters share one mixing pass.
  void query_into(BloomHash h, std::vector<SwitchId>& out) const {
    if (bank_ != nullptr) bank_->query_into(h, self_, out);
  }

  /// A view is only ever attached to its own group's bank (checked by
  /// check_invariants), so every filter but one is a peer's.
  [[nodiscard]] std::size_t peer_count() const {
    return bank_ == nullptr ? 0 : bank_->member_count() - 1;
  }
  /// Modelled per-switch storage (see GFibBank::peer_storage_bytes).
  [[nodiscard]] std::size_t storage_bytes() const {
    return bank_ == nullptr ? 0 : bank_->peer_storage_bytes(peer_count());
  }

 private:
  SwitchId self_;
  const GFibBank* bank_ = nullptr;
};

}  // namespace lazyctrl::core
