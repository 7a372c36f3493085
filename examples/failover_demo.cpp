// Failover walk-through (§III-E): one local control group's failure-
// detection wheel under a sequence of injected faults, printing the
// detection and recovery timeline.
//
//   $ ./examples/failover_demo
#include <cstdio>

#include "core/lazyctrl.h"

using namespace lazyctrl;

int main() {
  sim::Simulator simulator;

  core::Config cfg;
  cfg.failover_enabled = true;
  cfg.keepalive_period = kSecond;
  cfg.keepalive_loss_threshold = 3;
  cfg.switch_reboot_delay = 8 * kSecond;

  // A 10-switch group; the controller ordered members by management MAC and
  // picked S4 as designated with S7 and S1 as backups.
  std::vector<SwitchId> members;
  for (std::uint32_t i = 0; i < 10; ++i) members.push_back(SwitchId{i});
  core::FailureWheel wheel(simulator, members, SwitchId{4},
                           {SwitchId{7}, SwitchId{1}}, cfg);
  wheel.claim_events();
  wheel.start();

  std::printf("wheel: 10 switches in a ring, designated S4, backups S7,S1\n");
  std::printf("keep-alives every %.0fs, loss declared after %d misses\n\n",
              to_seconds(cfg.keepalive_period),
              cfg.keepalive_loss_threshold);

  // Fault schedule.
  simulator.schedule_at(5 * kSecond, [&] {
    std::printf("[t=%5.1fs] FAULT: control link of S2 cut\n",
                to_seconds(simulator.now()));
    wheel.fail_control_link(SwitchId{2});
  });
  simulator.schedule_at(20 * kSecond, [&] {
    std::printf("[t=%5.1fs] FAULT: peer link S4 <-> S5 cut (S4 is "
                "designated)\n",
                to_seconds(simulator.now()));
    wheel.fail_peer_link(SwitchId{4}, SwitchId{5});
  });
  simulator.schedule_at(40 * kSecond, [&] {
    std::printf("[t=%5.1fs] FAULT: switch S8 crashes\n",
                to_seconds(simulator.now()));
    wheel.fail_switch(SwitchId{8});
  });
  simulator.schedule_at(60 * kSecond, [&] {
    std::printf("[t=%5.1fs] REPAIR: control link of S2 restored\n",
                to_seconds(simulator.now()));
    wheel.recover_control_link(SwitchId{2});
  });

  simulator.run_until(75 * kSecond);

  std::printf("\ndetection & recovery timeline (Table I inference):\n");
  for (const core::WheelEvent& e : wheel.events()) {
    std::printf("  [t=%5.1fs] S%-2u %-15s %s\n", to_seconds(e.at),
                e.subject.value(), core::to_string(e.kind),
                e.action.c_str());
  }

  std::printf("\nfinal state:\n");
  std::printf("  designated switch: S%u\n", wheel.designated().value());
  std::printf("  S2 control relayed: %s (restored)\n",
              wheel.control_relayed(SwitchId{2}) ? "yes" : "no");
  std::printf("  S8 online: %s (rebooted after %.0fs)\n",
              wheel.is_switch_up(SwitchId{8}) ? "yes" : "no",
              to_seconds(cfg.switch_reboot_delay));
  return 0;
}
