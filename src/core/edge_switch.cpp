#include "core/edge_switch.h"

#include "obs/flow_latency.h"

namespace lazyctrl::core {

SimDuration EdgeSwitch::punt_retry_delay(std::uint64_t flow_id,
                                         std::uint32_t attempt,
                                         const ControllerConfig& ctrl,
                                         std::uint64_t seed) noexcept {
  // Exponential backoff: base << attempt, shift clamped so a generous
  // retry limit cannot overflow the duration.
  const std::uint32_t shift = attempt < 16 ? attempt : 16;
  const SimDuration base =
      ctrl.punt_retry_base > 0 ? ctrl.punt_retry_base : kMillisecond;
  const SimDuration backoff = base << shift;
  // Jitter in [0, base/2], a pure function of (flow, attempt, seed)
  // through the splitmix64 finalizer — never the run RNG.
  const std::uint64_t h = obs::mix_flow_id(
      flow_id ^ (static_cast<std::uint64_t>(attempt) << 48) ^
      0x7C0F'FEE5'EED1'5EA7ull ^ obs::mix_flow_id(seed));
  const auto span = static_cast<std::uint64_t>(base / 2 + 1);
  return backoff + static_cast<SimDuration>(h % span);
}

EdgeSwitch::EdgeSwitch(SwitchId id, IpAddress underlay_ip,
                       MacAddress management_mac, const Config& config)
    : id_(id),
      underlay_ip_(underlay_ip),
      management_mac_(management_mac),
      gfib_(BloomParameters{config.fib.bloom_bits, config.fib.bloom_hashes},
            config.fib.layout),
      table_(config.rules.flow_table_capacity),
      rule_ttl_(config.rules.rule_ttl) {}

EdgeSwitch::Decision EdgeSwitch::decide(const net::Packet& p, SimTime now,
                                        ControlMode mode) {
  Decision d;

  // Step 1 (both modes): flow-table lookup.
  if (const openflow::FlowRule* rule = table_.lookup(p, now)) {
    // Refresh the TTL (idle-timeout approximation).
    const_cast<openflow::FlowRule*>(rule)->expires_at = now + rule_ttl_;
    d.kind = DecisionKind::kFlowTableHit;
    d.rule = rule;
    return d;
  }

  if (mode == ControlMode::kOpenFlow) {
    // Baseline: every miss is a PacketIn.
    d.kind = DecisionKind::kToController;
    return d;
  }

  // Step 2: L-FIB — is the destination attached to this switch?
  if (lfib_.contains(p.dst_mac)) {
    d.kind = DecisionKind::kLocalDeliver;
    return d;
  }

  // Step 3: G-FIB — candidates inside the local control group (scratch-
  // backed scan; the Decision only views the buffer).
  decide_scratch_.clear();
  gfib_.query_into(BloomHash::of(p.dst_mac), decide_scratch_);
  if (!decide_scratch_.empty()) {
    d.kind = DecisionKind::kIntraGroup;
    d.candidates = decide_scratch_;
    return d;
  }

  // Step 4: destination provably outside the group -> controller.
  d.kind = DecisionKind::kToController;
  return d;
}

void EdgeSwitch::decide_batch(std::span<const net::Packet> batch,
                              ControlMode mode, DecisionBatch& out) {
  for (const net::Packet& p : batch) {
    const Decision d = decide(p, p.created_at, mode);
    out.kinds_.push_back(d.kind);
    out.pool_.insert(out.pool_.end(), d.candidates.begin(),
                     d.candidates.end());
    out.ends_.push_back(out.pool_.size());
  }
}

std::unordered_map<SwitchId, std::uint64_t> EdgeSwitch::take_window_counts() {
  std::unordered_map<SwitchId, std::uint64_t> out;
  out.reserve(window_touched_.size());
  for (const SwitchId peer : window_touched_) {
    out.emplace(peer, window_flows_[peer.value()]);
    window_flows_[peer.value()] = 0;
  }
  window_touched_.clear();
  return out;
}

}  // namespace lazyctrl::core
