#include "core/invariants.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/network.h"

namespace lazyctrl::core {

namespace {

/// Collects violations with a per-family cap: a systemic breakage (e.g. a
/// forgotten resync leaving every G-FIB stale) would otherwise drown the
/// report in thousands of identical lines.
class Collector {
 public:
  explicit Collector(InvariantReport& report) : report_(report) {}

  void add(const char* family, std::string detail) {
    if (family != family_) {
      family_ = family;
      family_count_ = 0;
    }
    if (++family_count_ > kPerFamilyCap) {
      if (family_count_ == kPerFamilyCap + 1) {
        report_.violations.push_back(std::string(family) +
                                     ": further violations suppressed");
      }
      return;
    }
    report_.violations.push_back(std::string(family) + ": " +
                                 std::move(detail));
  }

 private:
  static constexpr std::size_t kPerFamilyCap = 8;
  InvariantReport& report_;
  const char* family_ = nullptr;
  std::size_t family_count_ = 0;
};

[[nodiscard]] std::uint64_t total_events(const TimeBucketSeries& s) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < s.bucket_count(); ++i) {
    total += s.bucket_events(i);
  }
  return total;
}

std::string u64s(std::uint64_t v) { return std::to_string(v); }

}  // namespace

/// Friend of Network (see network.h): the audits live in static members
/// so they can read private state; everything stays internal to this
/// translation unit.
class InvariantChecker {
 public:
  static InvariantReport run(const Network& net);

 private:
  static void check_metrics(const Network& net, Collector& out);
  static void check_rules(const Network& net, Collector& out);
  static void check_location_state(const Network& net, Collector& out);
  static void check_gfib(const Network& net, Collector& out);
  static void check_wheels(const Network& net, Collector& out);
};

void InvariantChecker::check_metrics(const Network& net, Collector& out) {
  const RunMetrics& m = *net.metrics_;

  if (net.config_.mode == ControlMode::kLazyCtrl) {
    // Fig. 5 pipeline under the fault model: every flow ends as exactly
    // one of flow-table hit, local delivery, intra-group forward,
    // inter-group controller setup, transition-window punt (delivered),
    // degraded flood delivery or drop:
    //   flows_seen == delivered + degraded + dropped, with in-flight
    // identically 0 at event fences (flows resolve within one simulator
    // event, so there is no in-flight term to track).
    const std::uint64_t delivered =
        m.flows_flow_table_hit + m.flows_local_delivery +
        m.flows_intra_group + m.flows_inter_group + m.transition_punts;
    const std::uint64_t accounted =
        delivered + m.flows_degraded + m.flows_dropped;
    if (m.flows_seen != accounted) {
      out.add("flow conservation",
              "flows_seen=" + u64s(m.flows_seen) +
                  " != delivered+degraded+dropped=" + u64s(accounted) +
                  " (delivered=" + u64s(delivered) + " degraded=" +
                  u64s(m.flows_degraded) + " dropped=" +
                  u64s(m.flows_dropped) + ")");
    }
    // LazyCtrl degrades punts to flooding instead of dropping them.
    if (m.flows_dropped != 0) {
      out.add("flow conservation",
              "lazyctrl mode dropped " + u64s(m.flows_dropped) +
                  " flows (punt exhaustion must degrade to flooding)");
    }
    // Every PacketIn is an inter-group setup or a transition punt
    // (degraded/dropped flows never completed a PacketIn round trip).
    if (m.controller_packet_ins !=
        m.flows_inter_group + m.transition_punts) {
      out.add("flow conservation",
              "controller_packet_ins=" + u64s(m.controller_packet_ins) +
                  " != flows_inter_group+transition_punts=" +
                  u64s(m.flows_inter_group + m.transition_punts));
    }
  } else {
    // OpenFlow baseline: the grouping pipeline is inert; a flow either
    // hits an exact-match rule, completes a controller round trip, or is
    // dropped after punt exhaustion (the baseline has no flooding
    // fallback, so degraded deliveries are impossible).
    if (m.flows_local_delivery || m.flows_intra_group ||
        m.flows_inter_group || m.transition_punts || m.flows_degraded) {
      out.add("flow conservation",
              "openflow mode has nonzero grouping-path counters "
              "(local=" + u64s(m.flows_local_delivery) +
                  " intra=" + u64s(m.flows_intra_group) +
                  " inter=" + u64s(m.flows_inter_group) +
                  " punts=" + u64s(m.transition_punts) +
                  " degraded=" + u64s(m.flows_degraded) + ")");
    }
    if (m.flows_seen != m.flows_flow_table_hit + m.controller_packet_ins +
                            m.flows_dropped) {
      out.add("flow conservation",
              "flows_seen=" + u64s(m.flows_seen) +
                  " != flow_table_hit+controller_packet_ins+dropped=" +
                  u64s(m.flows_flow_table_hit + m.controller_packet_ins +
                       m.flows_dropped));
    }
  }

  // The RunMetrics admission-drop counter mirrors the controller's own
  // tally — a mismatch means a reject path updated one side only.
  if (m.ctrl_admission_drops != net.controller_.admission_drops()) {
    out.add("flow conservation",
            "ctrl_admission_drops=" + u64s(m.ctrl_admission_drops) +
                " != controller.admission_drops=" +
                u64s(net.controller_.admission_drops()));
  }

  // Every Bloom false-positive copy reaches exactly one wrong peer and is
  // dropped there (§III-D2).
  if (m.bf_false_positive_copies != m.bf_misforward_drops) {
    out.add("flow conservation",
            "bf_false_positive_copies=" + u64s(m.bf_false_positive_copies) +
                " != bf_misforward_drops=" + u64s(m.bf_misforward_drops));
  }

  // Counter <-> time-series pairings: both sides of each pair are bumped
  // at the same sites, so a mismatch means a code path updated one and
  // forgot the other.
  const auto series_matches = [&](const char* name,
                                  const TimeBucketSeries& series,
                                  std::uint64_t counter) {
    const std::uint64_t events = total_events(series);
    if (events != counter) {
      out.add("flow conservation", std::string(name) + " series has " +
                                       u64s(events) +
                                       " events but its counter reads " +
                                       u64s(counter));
    }
  };
  series_matches("flow_arrivals", m.flow_arrivals, m.flows_seen);
  series_matches("packet_latency", m.packet_latency, m.packets_accounted);
  series_matches("controller_requests", m.controller_requests,
                 m.controller_packet_ins);
  series_matches("inter_group_arrivals", m.inter_group_arrivals,
                 m.flows_inter_group);
  series_matches("grouping_updates", m.grouping_updates,
                 m.grouping_update_count);
}

void InvariantChecker::check_rules(const Network& net, Collector& out) {
  const SimTime now = net.simulator_.now();
  for (const auto& sw : net.switches_) {
    for (const openflow::FlowRule& rule : sw->flow_table().rules()) {
      // Expired rules awaiting the lazy sweep are dead capacity, not
      // stale forwarding state.
      if (rule.expires_at <= now) continue;
      if (!rule.match.dst_mac) continue;
      const topo::HostInfo* host =
          net.topology_.find_host_by_mac(*rule.match.dst_mac);
      if (host == nullptr) {
        out.add("rule hygiene",
                "switch " + u64s(sw->id().value()) +
                    " holds a live rule toward a MAC no host owns");
        continue;
      }
      if (net.dormant_hosts_.contains(host->id.value())) {
        out.add("rule hygiene",
                "switch " + u64s(sw->id().value()) +
                    " holds a live rule toward host " +
                    u64s(host->id.value()) +
                    " of a departed/dormant tenant (tenant " +
                    u64s(host->tenant.value()) + ")");
        continue;
      }
      switch (rule.action.type) {
        case openflow::ActionType::kForwardLocal:
          if (host->attached_switch != sw->id()) {
            out.add("rule hygiene",
                    "switch " + u64s(sw->id().value()) +
                        " forwards host " + u64s(host->id.value()) +
                        " locally but the host is attached to switch " +
                        u64s(host->attached_switch.value()));
          }
          break;
        case openflow::ActionType::kEncapTo:
          if (rule.action.remote_switch != host->attached_switch) {
            out.add("rule hygiene",
                    "switch " + u64s(sw->id().value()) + " encaps host " +
                        u64s(host->id.value()) + " to switch " +
                        u64s(rule.action.remote_switch.value()) +
                        " but the host is attached to switch " +
                        u64s(host->attached_switch.value()));
          }
          break;
        case openflow::ActionType::kToController:
        case openflow::ActionType::kDrop:
          break;
      }
    }
  }
}

void InvariantChecker::check_location_state(const Network& net,
                                            Collector& out) {
  std::size_t active_hosts = 0;
  for (const topo::HostInfo& h : net.topology_.hosts()) {
    const EdgeSwitch& sw = *net.switches_[h.attached_switch.value()];
    const auto entry = sw.lfib().lookup(h.mac);
    const auto clib = net.controller_.clib_lookup(h.mac);
    if (net.dormant_hosts_.contains(h.id.value())) {
      // Departed / not-yet-arrived tenants must be fully forgotten.
      if (entry) {
        out.add("location state",
                "dormant host " + u64s(h.id.value()) +
                    " still has an L-FIB entry at switch " +
                    u64s(h.attached_switch.value()));
      }
      if (clib) {
        out.add("location state", "dormant host " + u64s(h.id.value()) +
                                      " still has a C-LIB entry");
      }
      continue;
    }
    ++active_hosts;
    if (!entry) {
      out.add("location state",
              "host " + u64s(h.id.value()) +
                  " missing from the L-FIB of its attached switch " +
                  u64s(h.attached_switch.value()));
    } else if (entry->host != h.id || entry->tenant != h.tenant) {
      out.add("location state",
              "L-FIB of switch " + u64s(h.attached_switch.value()) +
                  " maps host " + u64s(h.id.value()) +
                  "'s MAC to host " + u64s(entry->host.value()) +
                  " tenant " + u64s(entry->tenant.value()));
    }
    if (!clib) {
      out.add("location state",
              "host " + u64s(h.id.value()) + " missing from the C-LIB");
    } else if (clib->attached_switch != h.attached_switch) {
      out.add("location state",
              "C-LIB places host " + u64s(h.id.value()) + " at switch " +
                  u64s(clib->attached_switch.value()) +
                  " but the topology attaches it to switch " +
                  u64s(h.attached_switch.value()));
    }
  }
  // Totals catch strays the per-host pass cannot see (an entry left
  // behind on a switch the host is no longer attached to).
  std::size_t lfib_total = 0;
  for (const auto& sw : net.switches_) lfib_total += sw->lfib().size();
  if (lfib_total != active_hosts) {
    out.add("location state",
            u64s(lfib_total) + " L-FIB entries across all switches vs " +
                u64s(active_hosts) + " active hosts (stale or missing "
                                     "entries somewhere)");
  }
  if (net.controller_.clib_size() != active_hosts) {
    out.add("location state", "C-LIB has " +
                                  u64s(net.controller_.clib_size()) +
                                  " entries vs " + u64s(active_hosts) +
                                  " active hosts");
  }
}

void InvariantChecker::check_gfib(const Network& net, Collector& out) {
  const Grouping& grouping = net.grouping();
  if (grouping.group_count == 0) return;

  // Hosts bucketed by attachment once; the no-false-negative pass below
  // walks each group's hosts per member.
  std::vector<std::vector<const topo::HostInfo*>> hosts_on(
      net.switches_.size());
  for (const topo::HostInfo& h : net.topology_.hosts()) {
    hosts_on[h.attached_switch.value()].push_back(&h);
  }

  for (const auto& sw : net.switches_) {
    if (grouping.group_of(sw->id()).value() != sw->group().value()) {
      out.add("gfib consistency",
              "switch " + u64s(sw->id().value()) + " believes group " +
                  u64s(sw->group().value()) +
                  " but the controller's grouping says " +
                  u64s(grouping.group_of(sw->id()).value()));
    }
  }

  const std::vector<std::vector<SwitchId>> members = grouping.members();
  std::vector<SwitchId> peers;
  std::vector<SwitchId> candidates;
  for (std::size_t gi = 0; gi < members.size(); ++gi) {
    const std::vector<SwitchId>& group = members[gi];
    if (group.empty()) continue;
    // One designated switch per group, elected from the membership.
    const SwitchId designated = net.switches_[group.front().value()]
                                    ->designated();
    if (std::find(group.begin(), group.end(), designated) == group.end()) {
      out.add("gfib consistency",
              "group " + u64s(gi) + "'s designated switch " +
                  u64s(designated.value()) + " is not one of its members");
    }
    for (const SwitchId member : group) {
      const EdgeSwitch& sw = *net.switches_[member.value()];
      if (sw.designated() != designated) {
        out.add("gfib consistency",
                "switch " + u64s(member.value()) + " elects designated " +
                    u64s(sw.designated().value()) + " but its group (" +
                    u64s(gi) + ") elected " + u64s(designated.value()));
      }
      // Peer set == co-members (both sides ascending by construction).
      peers.clear();
      sw.gfib().peers_into(peers);
      std::vector<SwitchId> expected;
      expected.reserve(group.size() - 1);
      for (const SwitchId p : group) {
        if (p != member) expected.push_back(p);
      }
      if (peers != expected) {
        out.add("gfib consistency",
                "switch " + u64s(member.value()) + " has " +
                    u64s(peers.size()) + " G-FIB peers but its group has " +
                    u64s(expected.size()) + " co-members");
        continue;
      }
      // No false negatives: every visible host on a peer must be matched
      // by that peer's filter (Bloom filters may over-match, never
      // under-match).
      for (const SwitchId peer : expected) {
        for (const topo::HostInfo* h : hosts_on[peer.value()]) {
          if (net.host_hidden(h->id)) continue;
          candidates.clear();
          sw.gfib().query_into(BloomHash::of(h->mac), candidates);
          if (std::find(candidates.begin(), candidates.end(), peer) ==
              candidates.end()) {
            out.add("gfib consistency",
                    "G-FIB of switch " + u64s(member.value()) +
                        " misses host " + u64s(h->id.value()) +
                        " on peer switch " + u64s(peer.value()) +
                        " (Bloom false negative — stale filter)");
          }
        }
      }
    }
  }
}

void InvariantChecker::check_wheels(const Network& net, Collector& out) {
  const Grouping& grouping = net.grouping();
  if (grouping.group_count == 0) return;
  const std::vector<std::vector<SwitchId>> members = grouping.members();
  if (net.wheels_.size() != members.size()) {
    out.add("failover wheels", u64s(net.wheels_.size()) +
                                   " failure wheels vs " +
                                   u64s(members.size()) + " groups");
    return;
  }
  for (std::size_t gi = 0; gi < members.size(); ++gi) {
    // Ring order is by management MAC, membership must match the group.
    std::vector<SwitchId> ring = net.wheels_[gi]->ring();
    std::vector<SwitchId> group = members[gi];
    std::sort(ring.begin(), ring.end());
    std::sort(group.begin(), group.end());
    if (ring != group) {
      out.add("failover wheels",
              "wheel " + u64s(gi) + " ring membership (" +
                  u64s(ring.size()) + " switches) differs from group " +
                  u64s(gi) + " (" + u64s(group.size()) + " members)");
    }
  }
}

InvariantReport InvariantChecker::run(const Network& net) {
  InvariantReport report;
  Collector out(report);
  check_metrics(net, out);
  check_rules(net, out);
  check_location_state(net, out);
  if (net.config_.mode == ControlMode::kLazyCtrl && net.bootstrapped_) {
    check_gfib(net, out);
    if (net.config_.failover_enabled) {
      check_wheels(net, out);
    }
  }
  return report;
}

std::string InvariantReport::text() const {
  std::string joined;
  for (const std::string& v : violations) {
    joined += v;
    joined += '\n';
  }
  return joined;
}

InvariantReport check_invariants(const Network& net) {
  return InvariantChecker::run(net);
}

}  // namespace lazyctrl::core
