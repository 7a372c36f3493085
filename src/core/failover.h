// Failover machinery (paper §III-E, Table I).
//
// Each local control group runs a failure-detection *wheel*: the member
// switches form a logical ring ordered by management MAC (keep-alives flow
// to both ring neighbours) and the controller keeps a spoke to every switch.
// The location of keep-alive loss identifies the failure (Table I):
//
//   loss on ring-up only          -> peer link to the upstream neighbour
//   loss on ring-down only        -> peer link to the downstream neighbour
//   loss on controller spoke only -> control link
//   loss on all three             -> the switch itself
//
// Recovery follows §III-E2/E3: control messages detour via the upstream
// neighbour on control-link failure; the designated switch is re-elected
// when it is an endpoint of a failed peer link or fails itself; failed
// switches are rebooted and resynchronised on comeback.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/config.h"
#include "sim/simulator.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::core {

enum class FailureKind : std::uint8_t {
  kNone,
  kControlLink,
  kPeerLinkUp,    ///< ring link to the upstream neighbour
  kPeerLinkDown,  ///< ring link to the downstream neighbour
  kSwitch,
};

/// Table I inference: maps the observed keep-alive loss pattern at/around
/// switch Sn to the failed component.
[[nodiscard]] FailureKind infer_failure(bool loss_ring_up,
                                        bool loss_ring_down,
                                        bool loss_controller_spoke) noexcept;

[[nodiscard]] const char* to_string(FailureKind kind) noexcept;

/// A detection or recovery action taken by the wheel, for inspection.
struct WheelEvent {
  SimTime at = 0;
  SwitchId subject;
  FailureKind kind = FailureKind::kNone;
  std::string action;
};

/// Event-driven failure-detection wheel for one local control group.
///
/// The wheel schedules two kinds of simulator records: its periodic
/// keep-alive (kWheelKeepalive, payload = first ring member) and the
/// remote reboot of a detected switch failure (kWheelReboot, payload =
/// the switch). Inside a core::Network the network routes both to
/// whichever wheel holds that switch when the record fires, so a
/// regroup that rebuilds the wheels never strands a pending reboot. A
/// wheel used on its own calls claim_events() to receive them directly.
class FailureWheel : public sim::EventHandler {
 public:
  /// `members` must already be ordered by management MAC (the controller
  /// does this at setup, §III-D1). `backups` are designated-switch backups.
  FailureWheel(sim::Simulator& simulator, std::vector<SwitchId> members,
               SwitchId designated, std::vector<SwitchId> backups,
               const Config& config);
  // claim_events() hands this wheel's address to the simulator.
  FailureWheel(const FailureWheel&) = delete;
  FailureWheel& operator=(const FailureWheel&) = delete;

  /// Arms the periodic keep-alive/detection timer.
  void start();
  void stop();

  /// Makes this wheel the simulator's handler for wheel records (a
  /// wheel used without a Network).
  void claim_events();
  /// Runs a wheel record: a keep-alive tick, or the completion of a
  /// remote reboot (recover_switch of the record's switch).
  void on_event(const sim::Event& e) override;

  // --- failure injection ---
  void fail_switch(SwitchId sw);
  void recover_switch(SwitchId sw);
  /// Fails the ring link between two *adjacent* members.
  void fail_peer_link(SwitchId a, SwitchId b);
  void recover_peer_link(SwitchId a, SwitchId b);
  void fail_control_link(SwitchId sw);
  void recover_control_link(SwitchId sw);

  // --- state inspection ---
  [[nodiscard]] SwitchId designated() const noexcept { return designated_; }
  /// True if `sw`'s control messages currently detour via its upstream
  /// ring neighbour.
  [[nodiscard]] bool control_relayed(SwitchId sw) const;
  [[nodiscard]] bool is_switch_up(SwitchId sw) const;
  /// True while `sw`'s controller spoke is intact.
  [[nodiscard]] bool is_control_link_up(SwitchId sw) const;
  /// True while the ring link from `sw` toward its downstream neighbour
  /// is intact.
  [[nodiscard]] bool is_down_link_up(SwitchId sw) const;
  [[nodiscard]] const std::vector<WheelEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<SwitchId>& ring() const noexcept {
    return members_;
  }
  [[nodiscard]] SwitchId upstream_of(SwitchId sw) const;
  [[nodiscard]] SwitchId downstream_of(SwitchId sw) const;

 private:
  /// Snapshot codec (src/ckpt): serializes the wheel verbatim, including
  /// the id of its pending keep-alive series, and rebuilds it on restore.
  friend class lazyctrl::ckpt::StateAccess;

  struct MemberState {
    bool up = true;
    bool control_link_up = true;
    bool control_relayed = false;
    /// Ring link toward the *downstream* neighbour (member i -> i+1).
    bool down_link_up = true;
    /// Announced as temporarily out by the designated switch.
    bool outage_announced = false;
  };

  void tick();
  void handle_detection(std::size_t index, FailureKind kind);
  void reelect_designated(SimTime now);
  std::size_t index_of(SwitchId sw) const;

  sim::Simulator* simulator_;
  std::vector<SwitchId> members_;
  SwitchId designated_;
  std::vector<SwitchId> backups_;
  Config config_;
  std::vector<MemberState> state_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
  sim::EventId timer_ = 0;
  bool running_ = false;
  std::vector<WheelEvent> events_;
  /// Failures already reported, so detection fires once per incident.
  std::unordered_set<std::uint64_t> reported_;
  /// Consecutive missed keep-alives per (subject, kind); detection fires
  /// after `keepalive_loss_threshold` misses.
  std::unordered_map<std::uint64_t, int> miss_counts_;
};

}  // namespace lazyctrl::core
