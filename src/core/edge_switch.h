// Edge switch model (paper §III-D, Fig. 5 and §IV-A).
//
// Holds the three tables of a LazyCtrl edge switch — flow table, L-FIB and
// G-FIB — plus group membership and the per-window traffic counters the
// state-advertisement module reports upstream. The `decide` method is the
// packet-forwarding routine of Fig. 5 restricted to the first packet of a
// flow (the only packet that can change control-plane state); the network
// harness turns the decision into latencies and metric updates.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/mac.h"
#include "common/time.h"
#include "core/config.h"
#include "core/gfib.h"
#include "core/lfib.h"
#include "net/packet.h"
#include "openflow/flow_table.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::core {

class EdgeSwitch {
 public:
  EdgeSwitch(SwitchId id, IpAddress underlay_ip, MacAddress management_mac,
             const Config& config);

  [[nodiscard]] SwitchId id() const noexcept { return id_; }
  [[nodiscard]] IpAddress underlay_ip() const noexcept { return underlay_ip_; }
  [[nodiscard]] MacAddress management_mac() const noexcept {
    return management_mac_;
  }

  [[nodiscard]] LFib& lfib() noexcept { return lfib_; }
  [[nodiscard]] const LFib& lfib() const noexcept { return lfib_; }
  [[nodiscard]] GFib& gfib() noexcept { return gfib_; }
  [[nodiscard]] const GFib& gfib() const noexcept { return gfib_; }
  [[nodiscard]] openflow::FlowTable& flow_table() noexcept { return table_; }
  [[nodiscard]] const openflow::FlowTable& flow_table() const noexcept {
    return table_;
  }
  /// Aggregate table occupancy, read by obs::Registry gauges ("fib.*").
  struct TableSizes {
    std::size_t lfib_entries = 0;
    std::size_t flow_table_rules = 0;
    std::size_t gfib_peers = 0;
    std::size_t gfib_bytes = 0;
  };
  [[nodiscard]] TableSizes table_sizes() const noexcept {
    return {lfib_.size(), table_.size(), gfib_.peer_count(),
            gfib_.storage_bytes()};
  }

  // --- group membership ---
  void set_group(GroupId g) noexcept { group_ = g; }
  [[nodiscard]] GroupId group() const noexcept { return group_; }
  void set_designated(SwitchId d) noexcept { designated_ = d; }
  [[nodiscard]] SwitchId designated() const noexcept { return designated_; }
  [[nodiscard]] bool is_designated() const noexcept {
    return designated_ == id_;
  }

  /// Reconfiguration window after a grouping update (appendix B preload).
  void set_transition_until(SimTime t) noexcept { transition_until_ = t; }
  [[nodiscard]] bool in_transition(SimTime now) const noexcept {
    return now < transition_until_;
  }

  // --- Fig. 5 forwarding decision for a first packet ---
  enum class DecisionKind : std::uint8_t {
    kFlowTableHit,   ///< matched an installed rule
    kLocalDeliver,   ///< L-FIB: destination attached locally
    kIntraGroup,     ///< G-FIB candidates (may include false positives)
    kToController,   ///< table miss everywhere -> PacketIn
  };

  struct Decision {
    DecisionKind kind = DecisionKind::kToController;
    /// Valid for kFlowTableHit (points into the flow table; not stable
    /// across installs).
    const openflow::FlowRule* rule = nullptr;
    /// Valid for kIntraGroup: candidate peers, ascending id order. Views
    /// the switch's internal scratch buffer — valid until the next
    /// decide()/decide_batch() call on this switch, which is exactly the
    /// consume-before-next-decide discipline of every call site and what
    /// makes the single-packet path allocation-free too.
    std::span<const SwitchId> candidates;
  };

  /// Runs the Fig. 5 routine for `p` under `mode`. In OpenFlow mode only
  /// the flow table is consulted (the baseline has no L-FIB/G-FIB logic);
  /// in LazyCtrl mode the order is flow table -> L-FIB -> G-FIB ->
  /// controller. Refreshes the TTL of a hit rule.
  Decision decide(const net::Packet& p, SimTime now, ControlMode mode);

  // --- batched forwarding pipeline ---
  //
  // decide_batch() is the zero-allocation form of decide() for a batch of
  // packets entering this switch: stage 1 probes the flow table for every
  // packet (in packet order, so TTL refreshes and lazy expiry happen in the
  // same sequence as per-packet calls), stage 2 runs the L-FIB probe vector
  // over the misses, stage 3 scans the G-FIB BloomBank with a precomputed
  // per-packet hash (one mixing pass per packet, not per peer filter, plus
  // a last-destination memo for bursts to one MAC), and whatever remains is
  // marked for the bulk controller punt. Candidate peers land in one shared
  // pool inside the DecisionBatch; after warm-up a batch performs no heap
  // allocation.
  //
  // Each packet is decided at its own `created_at` timestamp. Because the
  // switch tables are not mutated between the per-packet calls it replaces,
  // decide_batch(batch)[i] is identical to decide(batch[i]) called in
  // sequence — the equivalence the batched simulator mode relies on.

  /// One decision of a batch. Unlike Decision, no rule pointer is exposed:
  /// a flow-table mutation later in the same batch (install, lazy expiry
  /// sweep) can reallocate the rule storage, so a stored pointer could
  /// dangle before the batch is even consumed. A hit's TTL refresh happens
  /// inside the stage-1 lookup; consumers needing rule details re-probe.
  struct BatchDecision {
    DecisionKind kind = DecisionKind::kToController;
    std::uint32_t cand_begin = 0;  ///< kIntraGroup: range into the pool,
    std::uint32_t cand_end = 0;    ///< ascending id order.
  };

  /// Reusable result storage for decide_batch: decisions plus the shared
  /// candidate pool. clear() keeps capacity, so steady-state batches do
  /// not allocate.
  class DecisionBatch {
   public:
    void clear() noexcept {
      decisions_.clear();
      pool_.clear();
    }
    [[nodiscard]] std::size_t size() const noexcept {
      return decisions_.size();
    }
    [[nodiscard]] const BatchDecision& operator[](std::size_t i) const {
      return decisions_[i];
    }
    /// Candidate peers of decision `d`, ascending id order.
    [[nodiscard]] std::span<const SwitchId> candidates(
        const BatchDecision& d) const noexcept {
      return {pool_.data() + d.cand_begin,
              static_cast<std::size_t>(d.cand_end - d.cand_begin)};
    }

   private:
    friend class EdgeSwitch;
    std::vector<BatchDecision> decisions_;
    std::vector<SwitchId> pool_;
    std::vector<std::uint32_t> scratch_;  ///< unresolved packet offsets

    // Batch-wide G-FIB scan memo: open-addressing map from destination
    // MAC to its candidate range in pool_, so every distinct destination
    // of a run is scanned exactly once no matter how its packets
    // interleave — all repeats share the slice (or filter) loads of the
    // first scan. Rebuilt per decide_batch call (the G-FIB differs per
    // switch); table storage is reused, so steady state stays
    // allocation-free.
    struct MemoEntry {
      std::uint64_t key;
      std::uint32_t begin;
      std::uint32_t end;
    };
    std::vector<MemoEntry> memo_entries_;
    /// Generation-tagged open-addressing slots: (generation << 32) |
    /// (entry index + 1). A slot from an older generation reads as empty,
    /// so resetting the memo between decide_batch calls is one counter
    /// bump instead of a table-wide memset (which showed up as per-packet
    /// overhead on runs with no repeated destinations).
    std::vector<std::uint64_t> memo_slots_;
    std::uint32_t memo_gen_ = 0;
  };

  /// Decides every packet of `batch` (all ingressing at this switch) and
  /// APPENDS one BatchDecision per packet to `out` — callers clear() the
  /// DecisionBatch when starting a new batch. Append semantics let one
  /// DecisionBatch accumulate the per-switch runs of a mixed-ingress batch
  /// while every candidate span stays valid. Equivalent to calling
  /// decide(p, p.created_at, mode) per packet; see the pipeline notes
  /// above.
  void decide_batch(std::span<const net::Packet> batch, ControlMode mode,
                    DecisionBatch& out);

  // --- state advertisement counters (per stats window) ---
  /// Per-flow hot-path increment: a flat array indexed by peer id plus a
  /// touched-list, so recording costs one bounds check and one add instead
  /// of a hash-map operation per flow.
  void record_new_flow_to(SwitchId peer) {
    const std::size_t idx = peer.value();
    if (idx >= window_flows_.size()) window_flows_.resize(idx + 1, 0);
    if (window_flows_[idx] == 0) window_touched_.push_back(peer);
    ++window_flows_[idx];
  }
  /// Drains and returns the per-peer new-flow counts for this window.
  std::unordered_map<SwitchId, std::uint64_t> take_window_counts();

  /// Deterministic punt retry schedule (unreliable control plane): the
  /// wait before re-sending a punt whose attempt `attempt` (0-based) got
  /// no reply — exponential backoff doubling from ctrl.punt_retry_base
  /// plus a jitter in [0, base/2] keyed on splitmix64(flow id, attempt,
  /// seed), never the run RNG, so the schedule is bit-identical across
  /// reps.
  [[nodiscard]] static SimDuration punt_retry_delay(
      std::uint64_t flow_id, std::uint32_t attempt,
      const ControllerConfig& ctrl, std::uint64_t seed) noexcept;

 private:
  /// Snapshot codec (src/ckpt): restores the per-window advertisement
  /// counters (window_flows_/window_touched_, in recorded order) that
  /// have no public write path.
  friend class lazyctrl::ckpt::StateAccess;

  SwitchId id_;
  IpAddress underlay_ip_;
  MacAddress management_mac_;
  LFib lfib_;
  GFib gfib_;
  openflow::FlowTable table_;
  GroupId group_;
  SwitchId designated_;
  SimTime transition_until_ = 0;
  SimDuration rule_ttl_;
  std::vector<std::uint64_t> window_flows_;  ///< indexed by peer switch id
  std::vector<SwitchId> window_touched_;     ///< peers with non-zero counts
  /// Candidate scratch of the single-packet decide(); Decision::candidates
  /// views it, so decide() performs no allocation after warm-up.
  std::vector<SwitchId> decide_scratch_;
};

}  // namespace lazyctrl::core
