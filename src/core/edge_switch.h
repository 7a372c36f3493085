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
    /// decide() call on this switch, which is exactly the
    /// consume-before-next-decide discipline of every call site and what
    /// keeps decide() allocation-free.
    std::span<const SwitchId> candidates;
  };

  /// Runs the Fig. 5 routine for `p` under `mode`. In OpenFlow mode only
  /// the flow table is consulted (the baseline has no L-FIB/G-FIB logic);
  /// in LazyCtrl mode the order is flow table -> L-FIB -> G-FIB ->
  /// controller. Refreshes the TTL of a hit rule.
  Decision decide(const net::Packet& p, SimTime now, ControlMode mode);

  /// Vestige of the removed staged batch pipeline, kept only because
  /// perfbench/perfbench.cpp still times `core.decide_ns` through these
  /// two names; drop both in the next benchmark change. decide_batch()
  /// APPENDS decide(p, p.created_at, mode) for every packet of `batch`:
  /// each kind, plus a copy of its candidates into one shared pool.
  /// clear() keeps capacity, so after warm-up it allocates nothing.
  class DecisionBatch {
   public:
    void clear() noexcept {
      kinds_.clear();
      ends_.clear();
      pool_.clear();
    }
    [[nodiscard]] std::size_t size() const noexcept { return kinds_.size(); }
    [[nodiscard]] DecisionKind kind(std::size_t i) const { return kinds_[i]; }
    /// Candidate peers of decision `i`, ascending id order.
    [[nodiscard]] std::span<const SwitchId> candidates(std::size_t i) const {
      const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
      return {pool_.data() + begin, ends_[i] - begin};
    }

   private:
    friend class EdgeSwitch;
    std::vector<DecisionKind> kinds_;
    std::vector<std::size_t> ends_;  ///< pool end offset per decision
    std::vector<SwitchId> pool_;
  };
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
  /// Candidate scratch of decide(); Decision::candidates views it, so
  /// decide() performs no allocation after warm-up.
  std::vector<SwitchId> decide_scratch_;
};

}  // namespace lazyctrl::core
