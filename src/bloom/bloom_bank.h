// BloomBank: a keyed collection of Bloom filters, one per switch.
//
// This is the linear storage layout of the paper's G-FIB (§III-D2): one
// independent filter per switch, each summarising that switch's L-FIB.
// The simulator keeps one bank per group, holding every member's filter
// (core::GFibBank); a member's query skips its own filter. A lookup
// probes every filter and returns the switches that *might* host the
// queried MAC (false positives possible, negatives exact).
//
// Filters are stored in a vector sorted by SwitchId, so the hot-path scan
// is a linear pass in ascending id order: results come out deterministic
// with no per-query sort, and `query_into` appends into a caller-owned
// buffer so the steady-state datapath performs no allocation at all.
#pragma once

#include <cstddef>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/ids.h"
#include "common/mac.h"

namespace lazyctrl {

class BloomBank {
 public:
  explicit BloomBank(BloomParameters per_filter_params = {})
      : params_(per_filter_params) {}

  /// Installs (or replaces) the filter summarising `peer`'s host set.
  void set_filter(SwitchId peer, BloomFilter filter);

  /// Builds and installs a filter for `peer` from its host MAC list.
  void build_filter(SwitchId peer, const std::vector<MacAddress>& hosts);

  void clear();

  /// Appends the matching peers (ascending id order, `skip` left out)
  /// to `out` without clearing it, reusing the caller's capacity — the
  /// ONLY query form, so the steady-state datapath is allocation-free by
  /// construction. `h` is the precomputed hash of the queried MAC, so
  /// probing every filter costs one mixing pass.
  void query_into(BloomHash h, std::vector<SwitchId>& out,
                  SwitchId skip = SwitchId::invalid()) const {
    for (const Entry& e : filters_) {
      if (e.peer != skip && e.filter.may_contain(h)) out.push_back(e.peer);
    }
  }

  [[nodiscard]] bool has_filter(SwitchId peer) const {
    return find(peer) != nullptr;
  }
  [[nodiscard]] const BloomFilter* filter(SwitchId peer) const;
  [[nodiscard]] std::size_t filter_count() const noexcept {
    return filters_.size();
  }
  /// Total bit-array storage across all filters, in bytes.
  [[nodiscard]] std::size_t storage_bytes() const noexcept;
  [[nodiscard]] const BloomParameters& params() const noexcept {
    return params_;
  }

 private:
  struct Entry {
    SwitchId peer;
    BloomFilter filter;
  };

  [[nodiscard]] const Entry* find(SwitchId peer) const;

  BloomParameters params_;
  std::vector<Entry> filters_;  // kept sorted by ascending peer id
};

}  // namespace lazyctrl
