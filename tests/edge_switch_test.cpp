// Unit tests for the EdgeSwitch forwarding decision — every branch of the
// Fig. 5 routine in isolation.
#include <gtest/gtest.h>

#include "core/edge_switch.h"

namespace lazyctrl::core {
namespace {

EdgeSwitch make_switch(const Config& cfg = Config{}) {
  return EdgeSwitch(SwitchId{0}, IpAddress::for_switch(0),
                    MacAddress{0x060000000000ULL}, cfg);
}

net::Packet packet_to(std::uint32_t dst_host, std::uint32_t tenant = 0) {
  net::Packet p;
  p.src_mac = MacAddress::for_host(1000);
  p.dst_mac = MacAddress::for_host(dst_host);
  p.tenant = TenantId{tenant};
  return p;
}

openflow::FlowRule encap_rule(std::uint32_t dst_host, SwitchId remote,
                              SimTime expires = openflow::kNoExpiry) {
  openflow::FlowRule r;
  r.priority = 10;
  r.match.dst_mac = MacAddress::for_host(dst_host);
  r.action.type = openflow::ActionType::kEncapTo;
  r.action.remote_switch = remote;
  r.expires_at = expires;
  return r;
}

TEST(EdgeSwitchDecideTest, Step1FlowTableHitWins) {
  EdgeSwitch sw = make_switch();
  // Rule AND L-FIB entry for the same destination: the rule must win
  // (Fig. 5 consults the flow table first).
  sw.flow_table().install(encap_rule(5, SwitchId{9}));
  sw.lfib().learn(MacAddress::for_host(5), HostId{5}, TenantId{0});
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kFlowTableHit);
  ASSERT_NE(d.rule, nullptr);
  EXPECT_EQ(d.rule->action.remote_switch, SwitchId{9});
}

TEST(EdgeSwitchDecideTest, Step2LocalDeliver) {
  EdgeSwitch sw = make_switch();
  sw.lfib().learn(MacAddress::for_host(5), HostId{5}, TenantId{0});
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kLocalDeliver);
}

TEST(EdgeSwitchDecideTest, Step3GfibCandidates) {
  EdgeSwitch sw = make_switch();
  sw.gfib().sync_peer(SwitchId{3}, {MacAddress::for_host(5)});
  sw.gfib().sync_peer(SwitchId{7}, {MacAddress::for_host(6)});
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kIntraGroup);
  ASSERT_EQ(d.candidates.size(), 1u);
  EXPECT_EQ(d.candidates[0], SwitchId{3});
}

TEST(EdgeSwitchDecideTest, Step4ControllerFallback) {
  EdgeSwitch sw = make_switch();
  sw.gfib().sync_peer(SwitchId{3}, {MacAddress::for_host(6)});
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kToController);
  EXPECT_TRUE(d.candidates.empty());
}

TEST(EdgeSwitchDecideTest, OpenFlowModeIgnoresFibs) {
  EdgeSwitch sw = make_switch();
  sw.lfib().learn(MacAddress::for_host(5), HostId{5}, TenantId{0});
  sw.gfib().sync_peer(SwitchId{3}, {MacAddress::for_host(5)});
  // The baseline has no L-FIB/G-FIB logic: a table miss punts.
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kOpenFlow);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchDecideTest, HitRefreshesRuleTtl) {
  Config cfg;
  cfg.rules.rule_ttl = 100;
  EdgeSwitch sw = make_switch(cfg);
  sw.flow_table().install(encap_rule(5, SwitchId{9}, /*expires=*/50));
  // A hit at t=40 pushes the expiry to 40 + ttl = 140.
  ASSERT_EQ(sw.decide(packet_to(5), 40, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  EXPECT_EQ(sw.decide(packet_to(5), 120, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  // Without further hits the rule dies at 120 + ttl.
  EXPECT_EQ(sw.decide(packet_to(5), 500, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchDecideTest, TenantScopedRules) {
  EdgeSwitch sw = make_switch();
  openflow::FlowRule r = encap_rule(5, SwitchId{9});
  r.match.tenant = TenantId{2};
  sw.flow_table().install(r);
  EXPECT_EQ(sw.decide(packet_to(5, 2), 0, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  EXPECT_EQ(sw.decide(packet_to(5, 3), 0, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchTest, TransitionWindow) {
  EdgeSwitch sw = make_switch();
  EXPECT_FALSE(sw.in_transition(0));
  sw.set_transition_until(100);
  EXPECT_TRUE(sw.in_transition(99));
  EXPECT_FALSE(sw.in_transition(100));
}

TEST(EdgeSwitchTest, WindowCountersDrain) {
  EdgeSwitch sw = make_switch();
  sw.record_new_flow_to(SwitchId{1});
  sw.record_new_flow_to(SwitchId{1});
  sw.record_new_flow_to(SwitchId{2});
  auto counts = sw.take_window_counts();
  EXPECT_EQ(counts[SwitchId{1}], 2u);
  EXPECT_EQ(counts[SwitchId{2}], 1u);
  EXPECT_TRUE(sw.take_window_counts().empty());
}

TEST(EdgeSwitchTest, DesignatedFlag) {
  EdgeSwitch sw = make_switch();
  sw.set_designated(SwitchId{3});
  EXPECT_FALSE(sw.is_designated());
  sw.set_designated(SwitchId{0});
  EXPECT_TRUE(sw.is_designated());
}

// --- decide_batch (a loop over decide(), kept for perfbench) ---

TEST(EdgeSwitchBatchTest, MatchesPerPacketDecisions) {
  // A mixed batch covering every decision kind must reproduce decide()
  // exactly: same kinds, same candidate sets, same order.
  EdgeSwitch sw = make_switch();
  sw.flow_table().install(encap_rule(1, SwitchId{9}));
  sw.lfib().learn(MacAddress::for_host(2), HostId{2}, TenantId{0});
  sw.gfib().sync_peer(SwitchId{3}, {MacAddress::for_host(4)});
  sw.gfib().sync_peer(SwitchId{7}, {MacAddress::for_host(4)});

  std::vector<net::Packet> batch;
  for (const std::uint32_t dst : {1u, 2u, 4u, 4u, 99u, 1u, 2u}) {
    net::Packet p = packet_to(dst);
    p.created_at = static_cast<SimTime>(batch.size());
    batch.push_back(p);
  }

  // Reference decisions from an identically prepared switch.
  EdgeSwitch ref = make_switch();
  ref.flow_table().install(encap_rule(1, SwitchId{9}));
  ref.lfib().learn(MacAddress::for_host(2), HostId{2}, TenantId{0});
  ref.gfib().sync_peer(SwitchId{3}, {MacAddress::for_host(4)});
  ref.gfib().sync_peer(SwitchId{7}, {MacAddress::for_host(4)});

  EdgeSwitch::DecisionBatch out;
  sw.decide_batch(batch, ControlMode::kLazyCtrl, out);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto expected =
        ref.decide(batch[i], batch[i].created_at, ControlMode::kLazyCtrl);
    EXPECT_EQ(out.kind(i), expected.kind) << "packet " << i;
    const auto cands = out.candidates(i);
    ASSERT_EQ(cands.size(), expected.candidates.size()) << "packet " << i;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      EXPECT_EQ(cands[c], expected.candidates[c]);
    }
  }
}

TEST(EdgeSwitchBatchTest, OpenFlowModeSkipsFibs) {
  EdgeSwitch sw = make_switch();
  sw.lfib().learn(MacAddress::for_host(2), HostId{2}, TenantId{0});
  std::vector<net::Packet> batch = {packet_to(2)};
  EdgeSwitch::DecisionBatch out;
  sw.decide_batch(batch, ControlMode::kOpenFlow, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.kind(0), EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchBatchTest, AppendsAcrossCallsUntilCleared) {
  EdgeSwitch sw = make_switch();
  sw.lfib().learn(MacAddress::for_host(2), HostId{2}, TenantId{0});
  std::vector<net::Packet> batch = {packet_to(2)};
  EdgeSwitch::DecisionBatch out;
  sw.decide_batch(batch, ControlMode::kLazyCtrl, out);
  sw.decide_batch(batch, ControlMode::kLazyCtrl, out);
  EXPECT_EQ(out.size(), 2u);  // append semantics
  out.clear();
  sw.decide_batch(batch, ControlMode::kLazyCtrl, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(EdgeSwitchBatchTest, BurstToOneDestinationSharesCandidates) {
  EdgeSwitch sw = make_switch();
  sw.gfib().sync_peer(SwitchId{3}, {MacAddress::for_host(4)});
  std::vector<net::Packet> batch(16, packet_to(4));
  EdgeSwitch::DecisionBatch out;
  sw.decide_batch(batch, ControlMode::kLazyCtrl, out);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.kind(i), EdgeSwitch::DecisionKind::kIntraGroup);
    ASSERT_EQ(out.candidates(i).size(), 1u);
    EXPECT_EQ(out.candidates(i)[0], SwitchId{3});
  }
}

// --- punt retry schedule (unreliable control plane) ---

TEST(PuntRetryDelayTest, DeterministicPureFunction) {
  ControllerConfig ctrl;
  ctrl.punt_retry_base = 2 * kMillisecond;
  // Same (flow, attempt, config, seed) -> same delay, always: the
  // schedule is keyed on splitmix64, never the run RNG.
  for (std::uint32_t a = 0; a < 4; ++a) {
    EXPECT_EQ(EdgeSwitch::punt_retry_delay(77, a, ctrl, 42),
              EdgeSwitch::punt_retry_delay(77, a, ctrl, 42));
  }
  // Distinct flows (and distinct seeds) draw distinct jitter.
  EXPECT_NE(EdgeSwitch::punt_retry_delay(77, 0, ctrl, 42),
            EdgeSwitch::punt_retry_delay(78, 0, ctrl, 42));
  EXPECT_NE(EdgeSwitch::punt_retry_delay(77, 0, ctrl, 42),
            EdgeSwitch::punt_retry_delay(77, 0, ctrl, 43));
}

TEST(PuntRetryDelayTest, ExponentialBackoffWithBoundedJitter) {
  ControllerConfig ctrl;
  ctrl.punt_retry_base = 4 * kMillisecond;
  const SimDuration base = ctrl.punt_retry_base;
  for (std::uint32_t a = 0; a < 6; ++a) {
    const SimDuration d = EdgeSwitch::punt_retry_delay(9001, a, ctrl, 7);
    const SimDuration backoff = base << a;
    // backoff <= delay <= backoff + base/2 (the jitter window).
    EXPECT_GE(d, backoff) << "attempt " << a;
    EXPECT_LE(d, backoff + base / 2) << "attempt " << a;
  }
  // Doubling: attempt a+1's floor exceeds attempt a's ceiling for the
  // window sizes above, so the schedule is strictly increasing.
  EXPECT_LT(EdgeSwitch::punt_retry_delay(9001, 0, ctrl, 7),
            EdgeSwitch::punt_retry_delay(9001, 1, ctrl, 7));
  EXPECT_LT(EdgeSwitch::punt_retry_delay(9001, 1, ctrl, 7),
            EdgeSwitch::punt_retry_delay(9001, 2, ctrl, 7));
}

TEST(PuntRetryDelayTest, ZeroBaseFallsBackToOneMillisecond) {
  ControllerConfig ctrl;
  ctrl.punt_retry_base = 0;
  const SimDuration d = EdgeSwitch::punt_retry_delay(1, 0, ctrl, 0);
  EXPECT_GE(d, kMillisecond);
  EXPECT_LE(d, kMillisecond + kMillisecond / 2);
}

}  // namespace
}  // namespace lazyctrl::core
