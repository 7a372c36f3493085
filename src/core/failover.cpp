#include "core/failover.h"

#include <algorithm>
#include <cassert>

namespace lazyctrl::core {

FailureKind infer_failure(bool loss_ring_up, bool loss_ring_down,
                          bool loss_controller_spoke) noexcept {
  if (loss_ring_up && loss_ring_down && loss_controller_spoke) {
    return FailureKind::kSwitch;
  }
  if (loss_ring_up && !loss_ring_down && !loss_controller_spoke) {
    return FailureKind::kPeerLinkUp;
  }
  if (!loss_ring_up && loss_ring_down && !loss_controller_spoke) {
    return FailureKind::kPeerLinkDown;
  }
  if (!loss_ring_up && !loss_ring_down && loss_controller_spoke) {
    return FailureKind::kControlLink;
  }
  return FailureKind::kNone;
}

const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kControlLink:
      return "control-link";
    case FailureKind::kPeerLinkUp:
      return "peer-link-up";
    case FailureKind::kPeerLinkDown:
      return "peer-link-down";
    case FailureKind::kSwitch:
      return "switch";
  }
  return "?";
}

FailureWheel::FailureWheel(sim::Simulator& simulator,
                           std::vector<SwitchId> members, SwitchId designated,
                           std::vector<SwitchId> backups, const Config& config)
    : simulator_(&simulator),
      members_(std::move(members)),
      designated_(designated),
      backups_(std::move(backups)),
      config_(config),
      state_(members_.size()) {
  assert(!members_.empty());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    index_.emplace(members_[i].value(), i);
  }
}

std::size_t FailureWheel::index_of(SwitchId sw) const {
  return index_.at(sw.value());
}

SwitchId FailureWheel::upstream_of(SwitchId sw) const {
  const std::size_t i = index_of(sw);
  return members_[(i + members_.size() - 1) % members_.size()];
}

SwitchId FailureWheel::downstream_of(SwitchId sw) const {
  const std::size_t i = index_of(sw);
  return members_[(i + 1) % members_.size()];
}

void FailureWheel::start() {
  if (running_) return;
  running_ = true;
  timer_ = simulator_->schedule_periodic(config_.keepalive_period,
                                         sim::EventKind::kWheelKeepalive,
                                         members_.front().value());
}

void FailureWheel::stop() {
  if (!running_) return;
  running_ = false;
  simulator_->cancel(timer_);
}

void FailureWheel::claim_events() {
  simulator_->set_handler(sim::EventKind::kWheelKeepalive, this);
  simulator_->set_handler(sim::EventKind::kWheelReboot, this);
}

void FailureWheel::on_event(const sim::Event& e) {
  switch (e.kind) {
    case sim::EventKind::kWheelKeepalive:
      tick();
      break;
    case sim::EventKind::kWheelReboot:
      recover_switch(SwitchId{static_cast<std::uint32_t>(e.a)});
      break;
    default:
      assert(false && "not a wheel event");
      break;
  }
}

void FailureWheel::fail_switch(SwitchId sw) { state_[index_of(sw)].up = false; }

void FailureWheel::recover_switch(SwitchId sw) {
  MemberState& s = state_[index_of(sw)];
  s.up = true;
  s.outage_announced = false;
  // Comeback triggers a proactive group-wide state resync (§III-E3).
  events_.push_back({simulator_->now(), sw, FailureKind::kSwitch,
                     "switch back online; outage signal removed; group state "
                     "resynchronised"});
  reported_.erase((static_cast<std::uint64_t>(sw.value()) << 8) |
                  static_cast<std::uint64_t>(FailureKind::kSwitch));
}

void FailureWheel::fail_peer_link(SwitchId a, SwitchId b) {
  // The ring link i -> i+1 is stored with the upstream member i.
  const std::size_t ia = index_of(a);
  const std::size_t ib = index_of(b);
  if ((ia + 1) % members_.size() == ib) {
    state_[ia].down_link_up = false;
  } else if ((ib + 1) % members_.size() == ia) {
    state_[ib].down_link_up = false;
  } else {
    assert(false && "fail_peer_link: switches are not ring-adjacent");
  }
}

void FailureWheel::recover_peer_link(SwitchId a, SwitchId b) {
  const std::size_t ia = index_of(a);
  const std::size_t ib = index_of(b);
  if ((ia + 1) % members_.size() == ib) {
    state_[ia].down_link_up = true;
  } else if ((ib + 1) % members_.size() == ia) {
    state_[ib].down_link_up = true;
  }
  for (SwitchId sw : {a, b}) {
    for (FailureKind k : {FailureKind::kPeerLinkUp, FailureKind::kPeerLinkDown}) {
      reported_.erase((static_cast<std::uint64_t>(sw.value()) << 8) |
                      static_cast<std::uint64_t>(k));
    }
  }
}

void FailureWheel::fail_control_link(SwitchId sw) {
  state_[index_of(sw)].control_link_up = false;
}

void FailureWheel::recover_control_link(SwitchId sw) {
  MemberState& s = state_[index_of(sw)];
  s.control_link_up = true;
  s.control_relayed = false;
  reported_.erase((static_cast<std::uint64_t>(sw.value()) << 8) |
                  static_cast<std::uint64_t>(FailureKind::kControlLink));
}

bool FailureWheel::control_relayed(SwitchId sw) const {
  return state_[index_of(sw)].control_relayed;
}

bool FailureWheel::is_switch_up(SwitchId sw) const {
  return state_[index_of(sw)].up;
}

bool FailureWheel::is_control_link_up(SwitchId sw) const {
  return state_[index_of(sw)].control_link_up;
}

bool FailureWheel::is_down_link_up(SwitchId sw) const {
  return state_[index_of(sw)].down_link_up;
}

void FailureWheel::reelect_designated(SimTime now) {
  // Prefer backups that are alive; then any live member.
  for (SwitchId b : backups_) {
    if (b != designated_ && state_[index_of(b)].up) {
      events_.push_back({now, b, FailureKind::kNone,
                         "designated switch re-elected from backups"});
      designated_ = b;
      return;
    }
  }
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] != designated_ && state_[i].up) {
      events_.push_back({now, members_[i], FailureKind::kNone,
                         "designated switch re-elected (no live backup)"});
      designated_ = members_[i];
      return;
    }
  }
}

void FailureWheel::handle_detection(std::size_t index, FailureKind kind) {
  const SwitchId sw = members_[index];
  const std::uint64_t key = (static_cast<std::uint64_t>(sw.value()) << 8) |
                            static_cast<std::uint64_t>(kind);
  if (!reported_.insert(key).second) return;  // already handled

  const SimTime now = simulator_->now();
  switch (kind) {
    case FailureKind::kControlLink: {
      // §III-E2: detour control messages via the upstream ring neighbour.
      state_[index].control_relayed = true;
      events_.push_back({now, sw, kind,
                         "control link lost; control messages relayed via "
                         "upstream neighbour"});
      break;
    }
    case FailureKind::kPeerLinkUp:
    case FailureKind::kPeerLinkDown: {
      events_.push_back({now, sw, kind, "peer link failure detected"});
      // Only matters for control if an endpoint is the designated switch.
      const SwitchId other = kind == FailureKind::kPeerLinkUp
                                 ? upstream_of(sw)
                                 : downstream_of(sw);
      if (sw == designated_ || other == designated_) {
        reelect_designated(now);
      }
      break;
    }
    case FailureKind::kSwitch: {
      // §III-E3: announce outage, re-elect if needed, reboot remotely.
      state_[index].outage_announced = true;
      events_.push_back({now, sw, kind,
                         "switch failure detected; outage announced in group; "
                         "remote reboot issued"});
      if (sw == designated_) reelect_designated(now);
      simulator_->schedule_at(now + config_.switch_reboot_delay,
                              sim::EventKind::kWheelReboot, sw.value());
      break;
    }
    case FailureKind::kNone:
      break;
  }
}

void FailureWheel::tick() {
  const std::size_t n = members_.size();
  if (n < 2) return;
  // For every member Sn, determine where Sn's keep-alives were lost this
  // period, as observed by its ring neighbours and the controller, then run
  // the Table I inference. Dead observers cannot observe.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t up = (i + n - 1) % n;
    const std::size_t down = (i + 1) % n;

    const bool subject_dead = !state_[i].up;
    // Keep-alive Sn -> Sn-1 crosses the ring link stored at `up`.
    const bool loss_up =
        (subject_dead || !state_[up].down_link_up) && state_[up].up;
    // Keep-alive Sn -> Sn+1 crosses the ring link stored at `i`.
    const bool loss_down =
        (subject_dead || !state_[i].down_link_up) && state_[down].up;
    // Controller spoke.
    const bool loss_ctrl = subject_dead || !state_[i].control_link_up;

    const FailureKind kind = infer_failure(loss_up, loss_down, loss_ctrl);
    if (kind == FailureKind::kNone) {
      // Clear consecutive-miss counters for this subject.
      for (int k = 1; k <= static_cast<int>(FailureKind::kSwitch); ++k) {
        miss_counts_.erase((static_cast<std::uint64_t>(members_[i].value())
                            << 8) |
                           static_cast<std::uint64_t>(k));
      }
      continue;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(members_[i].value()) << 8) |
        static_cast<std::uint64_t>(kind);
    if (++miss_counts_[key] >= config_.keepalive_loss_threshold) {
      handle_detection(i, kind);
    }
  }
}

}  // namespace lazyctrl::core
