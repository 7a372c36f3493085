// Tests for the failure-detection wheel: Table I inference, detection of
// every failure class, and the §III-E recovery actions.
#include <gtest/gtest.h>

#include <tuple>

#include "core/failover.h"
#include "sim/simulator.h"

namespace lazyctrl::core {
namespace {

Config test_config() {
  Config c;
  c.failover_enabled = true;
  c.keepalive_period = 1 * kSecond;
  c.keepalive_loss_threshold = 3;
  c.switch_reboot_delay = 10 * kSecond;
  return c;
}

std::vector<SwitchId> members5() {
  return {SwitchId{0}, SwitchId{1}, SwitchId{2}, SwitchId{3}, SwitchId{4}};
}

/// First event matching (subject, kind), or nullptr.
const WheelEvent* find_event(const FailureWheel& wheel, SwitchId subject,
                             FailureKind kind) {
  for (const WheelEvent& e : wheel.events()) {
    if (e.subject == subject && e.kind == kind) return &e;
  }
  return nullptr;
}

// --- Table I truth table ---

struct InferCase {
  bool up, down, ctrl;
  FailureKind expected;
};

class InferFailureTest : public ::testing::TestWithParam<InferCase> {};

TEST_P(InferFailureTest, MatchesTableI) {
  const InferCase& c = GetParam();
  EXPECT_EQ(infer_failure(c.up, c.down, c.ctrl), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    TableI, InferFailureTest,
    ::testing::Values(
        InferCase{false, false, false, FailureKind::kNone},
        InferCase{true, false, false, FailureKind::kPeerLinkUp},
        InferCase{false, true, false, FailureKind::kPeerLinkDown},
        InferCase{false, false, true, FailureKind::kControlLink},
        InferCase{true, true, true, FailureKind::kSwitch},
        // Ambiguous two-signal patterns are not classified (conservative).
        InferCase{true, true, false, FailureKind::kNone},
        InferCase{true, false, true, FailureKind::kNone},
        InferCase{false, true, true, FailureKind::kNone}));

TEST(FailureKindTest, ToStringCoversAll) {
  EXPECT_STREQ(to_string(FailureKind::kNone), "none");
  EXPECT_STREQ(to_string(FailureKind::kControlLink), "control-link");
  EXPECT_STREQ(to_string(FailureKind::kPeerLinkUp), "peer-link-up");
  EXPECT_STREQ(to_string(FailureKind::kPeerLinkDown), "peer-link-down");
  EXPECT_STREQ(to_string(FailureKind::kSwitch), "switch");
}

// --- wheel behaviour ---

TEST(FailureWheelTest, RingNeighbours) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {SwitchId{1}}, test_config());
  EXPECT_EQ(wheel.upstream_of(SwitchId{0}), SwitchId{4});
  EXPECT_EQ(wheel.downstream_of(SwitchId{0}), SwitchId{1});
  EXPECT_EQ(wheel.downstream_of(SwitchId{4}), SwitchId{0});
}

TEST(FailureWheelTest, NoFailuresNoEvents) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  s.run_until(30 * kSecond);
  EXPECT_TRUE(wheel.events().empty());
}

TEST(FailureWheelTest, DetectsControlLinkFailureAndRelays) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(2 * kSecond, [&] { wheel.fail_control_link(SwitchId{2}); });
  s.run_until(30 * kSecond);

  const WheelEvent* e =
      find_event(wheel, SwitchId{2}, FailureKind::kControlLink);
  ASSERT_NE(e, nullptr);
  // Detected only after the loss persists for loss_threshold observations
  // (the first observing keep-alive tick can coincide with the failure).
  EXPECT_GE(e->at, 4 * kSecond);
  EXPECT_LE(e->at, 6 * kSecond);
  EXPECT_TRUE(wheel.control_relayed(SwitchId{2}));
  EXPECT_FALSE(wheel.control_relayed(SwitchId{1}));
}

TEST(FailureWheelTest, ControlLinkRecoveryStopsRelay) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(2 * kSecond, [&] { wheel.fail_control_link(SwitchId{2}); });
  s.schedule_at(20 * kSecond, [&] { wheel.recover_control_link(SwitchId{2}); });
  s.run_until(40 * kSecond);
  EXPECT_FALSE(wheel.control_relayed(SwitchId{2}));
}

TEST(FailureWheelTest, DetectsPeerLinkFailure) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] {
    wheel.fail_peer_link(SwitchId{1}, SwitchId{2});
  });
  s.run_until(30 * kSecond);
  // Loss shows as: S2's keep-alive to S1 lost (peer-link-up at S2) and
  // S1's keep-alive to S2 lost (peer-link-down at S1).
  EXPECT_NE(find_event(wheel, SwitchId{2}, FailureKind::kPeerLinkUp), nullptr);
  EXPECT_NE(find_event(wheel, SwitchId{1}, FailureKind::kPeerLinkDown),
            nullptr);
  // Designated (S0) is not an endpoint: no re-election.
  EXPECT_EQ(wheel.designated(), SwitchId{0});
}

TEST(FailureWheelTest, PeerLinkAtDesignatedTriggersReelection) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{1}, {SwitchId{3}}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] {
    wheel.fail_peer_link(SwitchId{1}, SwitchId{2});
  });
  s.run_until(30 * kSecond);
  EXPECT_EQ(wheel.designated(), SwitchId{3});  // first live backup
}

TEST(FailureWheelTest, DetectsSwitchFailure) {
  sim::Simulator s;
  Config cfg = test_config();
  cfg.switch_reboot_delay = 1000 * kSecond;  // keep it down for this test
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, cfg);
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] { wheel.fail_switch(SwitchId{3}); });
  s.run_until(30 * kSecond);

  const WheelEvent* e = find_event(wheel, SwitchId{3}, FailureKind::kSwitch);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->action.find("reboot"), std::string::npos);
  EXPECT_FALSE(wheel.is_switch_up(SwitchId{3}));
  // Neighbours must NOT be misclassified as having peer-link failures.
  EXPECT_EQ(find_event(wheel, SwitchId{2}, FailureKind::kPeerLinkDown),
            nullptr);
  EXPECT_EQ(find_event(wheel, SwitchId{4}, FailureKind::kPeerLinkUp), nullptr);
}

TEST(FailureWheelTest, SwitchRebootsAndResyncs) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] { wheel.fail_switch(SwitchId{3}); });
  s.run_until(60 * kSecond);
  EXPECT_TRUE(wheel.is_switch_up(SwitchId{3}));
  bool resynced = false;
  for (const WheelEvent& e : wheel.events()) {
    if (e.subject == SwitchId{3} &&
        e.action.find("resynchronised") != std::string::npos) {
      resynced = true;
    }
  }
  EXPECT_TRUE(resynced);
}

TEST(FailureWheelTest, DesignatedSwitchFailureReelects) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{2},
                     {SwitchId{4}, SwitchId{1}}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] { wheel.fail_switch(SwitchId{2}); });
  s.run_until(10 * kSecond);
  EXPECT_EQ(wheel.designated(), SwitchId{4});
}

TEST(FailureWheelTest, DeadBackupSkippedInReelection) {
  sim::Simulator s;
  Config cfg = test_config();
  cfg.switch_reboot_delay = 1000 * kSecond;
  FailureWheel wheel(s, members5(), SwitchId{2},
                     {SwitchId{4}, SwitchId{1}}, cfg);
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] {
    wheel.fail_switch(SwitchId{4});
    wheel.fail_switch(SwitchId{2});
  });
  s.run_until(10 * kSecond);
  EXPECT_EQ(wheel.designated(), SwitchId{1});
}

TEST(FailureWheelTest, DetectionWaitsForLossThreshold) {
  sim::Simulator s;
  Config cfg = test_config();
  cfg.keepalive_loss_threshold = 5;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, cfg);
  wheel.claim_events();
  wheel.start();
  s.schedule_at(0, [&] { wheel.fail_control_link(SwitchId{1}); });
  s.run_until(4 * kSecond);  // only 4 keep-alive periods elapsed
  EXPECT_EQ(find_event(wheel, SwitchId{1}, FailureKind::kControlLink),
            nullptr);
  s.run_until(10 * kSecond);
  EXPECT_NE(find_event(wheel, SwitchId{1}, FailureKind::kControlLink),
            nullptr);
}

TEST(FailureWheelTest, TransientGlitchBelowThresholdNotReported) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] { wheel.fail_control_link(SwitchId{1}); });
  // Recovers after 2 periods, below the threshold of 3.
  s.schedule_at(3 * kSecond + kSecond / 2,
                [&] { wheel.recover_control_link(SwitchId{1}); });
  s.run_until(30 * kSecond);
  EXPECT_EQ(find_event(wheel, SwitchId{1}, FailureKind::kControlLink),
            nullptr);
}

TEST(FailureWheelTest, TwoMemberRing) {
  sim::Simulator s;
  FailureWheel wheel(s, {SwitchId{0}, SwitchId{1}}, SwitchId{0}, {},
                     test_config());
  wheel.claim_events();
  wheel.start();
  s.schedule_at(kSecond, [&] { wheel.fail_switch(SwitchId{1}); });
  s.run_until(8 * kSecond);
  EXPECT_NE(find_event(wheel, SwitchId{1}, FailureKind::kSwitch), nullptr);
}

TEST(FailureWheelTest, StopHaltsDetection) {
  sim::Simulator s;
  FailureWheel wheel(s, members5(), SwitchId{0}, {}, test_config());
  wheel.claim_events();
  wheel.start();
  wheel.stop();
  wheel.fail_switch(SwitchId{1});
  s.run_until(30 * kSecond);
  EXPECT_TRUE(wheel.events().empty());
}

}  // namespace
}  // namespace lazyctrl::core
