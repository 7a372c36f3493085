// Demonstrates Table I / §III-E: the failure-detection wheel of one local
// control group. Injects every failure class, prints what the wheel
// inferred (Table I) and the recovery action taken, with detection times.
#include <cstdio>

#include "bench_common.h"
#include "core/failover.h"
#include "harness.h"
#include "sim/simulator.h"

using namespace lazyctrl;

namespace {

void print_events(const core::FailureWheel& wheel, const char* scenario,
                  SimTime injected_at) {
  std::printf("\n--- %s (injected at t=%.1fs) ---\n", scenario,
              to_seconds(injected_at));
  if (wheel.events().empty()) {
    std::printf("  (no detections)\n");
    return;
  }
  for (const core::WheelEvent& e : wheel.events()) {
    std::printf("  t=%6.1fs  S%-3u  inferred=%-14s  %s\n", to_seconds(e.at),
                e.subject.value(), core::to_string(e.kind),
                e.action.c_str());
  }
}

core::Config wheel_config() {
  core::Config cfg;
  cfg.failover_enabled = true;
  cfg.keepalive_period = kSecond;
  cfg.keepalive_loss_threshold = 3;
  cfg.switch_reboot_delay = 10 * kSecond;
  return cfg;
}

std::vector<SwitchId> members(std::size_t n) {
  std::vector<SwitchId> m;
  for (std::uint32_t i = 0; i < n; ++i) m.push_back(SwitchId{i});
  return m;
}

int body(benchx::BenchReport& report) {
  int scenarios_with_detections = 0;

  // Scenario 1: control link failure -> relay via upstream neighbour.
  {
    sim::Simulator s;
    core::FailureWheel wheel(s, members(8), SwitchId{0}, {SwitchId{4}},
                             wheel_config());
    wheel.claim_events();
    wheel.start();
    s.schedule_at(5 * kSecond, [&] { wheel.fail_control_link(SwitchId{3}); });
    s.run_until(30 * kSecond);
    print_events(wheel, "control link S3 <-> controller fails",
                 5 * kSecond);
    std::printf("  control messages of S3 relayed via upstream S%u: %s\n",
                wheel.upstream_of(SwitchId{3}).value(),
                wheel.control_relayed(SwitchId{3}) ? "yes" : "no");
    if (!wheel.events().empty()) {
      ++scenarios_with_detections;
      report.metric("detection_seconds_control_link",
                    to_seconds(wheel.events().front().at - 5 * kSecond),
                    "s");
    }
  }

  // Scenario 2: peer link failure away from the designated switch.
  {
    sim::Simulator s;
    core::FailureWheel wheel(s, members(8), SwitchId{0}, {SwitchId{4}},
                             wheel_config());
    wheel.claim_events();
    wheel.start();
    s.schedule_at(5 * kSecond,
                  [&] { wheel.fail_peer_link(SwitchId{5}, SwitchId{6}); });
    s.run_until(30 * kSecond);
    print_events(wheel, "peer link S5 <-> S6 fails", 5 * kSecond);
    std::printf("  designated unchanged: S%u\n", wheel.designated().value());
    if (!wheel.events().empty()) {
      ++scenarios_with_detections;
      report.metric("detection_seconds_peer_link",
                    to_seconds(wheel.events().front().at - 5 * kSecond),
                    "s");
    }
  }

  // Scenario 3: peer link failure at the designated switch -> re-election.
  {
    sim::Simulator s;
    core::FailureWheel wheel(s, members(8), SwitchId{5}, {SwitchId{2}},
                             wheel_config());
    wheel.claim_events();
    wheel.start();
    s.schedule_at(5 * kSecond,
                  [&] { wheel.fail_peer_link(SwitchId{5}, SwitchId{6}); });
    s.run_until(30 * kSecond);
    print_events(wheel, "peer link at designated S5 fails", 5 * kSecond);
    std::printf("  designated re-elected: S%u\n", wheel.designated().value());
    if (!wheel.events().empty()) ++scenarios_with_detections;
  }

  // Scenario 4: switch failure -> outage, reboot, resync.
  {
    sim::Simulator s;
    core::FailureWheel wheel(s, members(8), SwitchId{2}, {SwitchId{6}},
                             wheel_config());
    wheel.claim_events();
    wheel.start();
    s.schedule_at(5 * kSecond, [&] { wheel.fail_switch(SwitchId{2}); });
    s.run_until(60 * kSecond);
    print_events(wheel, "designated switch S2 fails (reboots after 10s)",
                 5 * kSecond);
    std::printf("  back online: %s; designated now S%u\n",
                wheel.is_switch_up(SwitchId{2}) ? "yes" : "no",
                wheel.designated().value());
    if (!wheel.events().empty()) {
      ++scenarios_with_detections;
      report.metric("detection_seconds_switch_failure",
                    to_seconds(wheel.events().front().at - 5 * kSecond),
                    "s");
    }
  }

  std::printf("\nAll four Table I rows exercised: detection fires after %d "
              "missed keep-alives (%.0fs at a %.0fs period).\n",
              3, 3.0, 1.0);
  report.metric("scenarios_with_detections",
                static_cast<double>(scenarios_with_detections), "scenarios");
  return scenarios_with_detections == 4 ? 0 : 1;
}

}  // namespace

int main() {
  return benchx::run_benchmark(
      "table1_failover", "Table I — Failure inference on the detection wheel",
      "loss on ring-up only -> peer link (up); ring-down only -> peer link "
      "(down); spoke only -> control link; all three -> switch",
      {}, body);
}
