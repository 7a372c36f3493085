#include "scenario/runner.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "core/invariants.h"
#include "obs/flow_latency.h"
#include "obs/trace.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl::scenario {

namespace {

// Decorrelated Rng stream ids derived from the scenario seed. Every
// random choice the runner makes draws from its own stream so adding an
// event never perturbs an unrelated one.
constexpr std::uint64_t kTopologyStream = 0x5C01;
constexpr std::uint64_t kWorkloadStream = 0x5C02;
constexpr std::uint64_t kSurgeStreamBase = 0x5C10'0000;
constexpr std::uint64_t kBurstStreamBase = 0x5C20'0000;

bool is_wheel_event(EventKind kind) {
  switch (kind) {
    case EventKind::kFailSwitch:
    case EventKind::kRecoverSwitch:
    case EventKind::kFailPeerLink:
    case EventKind::kRecoverPeerLink:
    case EventKind::kFailControlLink:
    case EventKind::kRecoverControlLink:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool ScenarioRunner::validate(std::string* error) const {
  const auto fail = [&](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  const SimDuration horizon = spec_.workload.horizon;

  std::unordered_map<std::uint32_t, SimTime> arrivals;
  std::unordered_map<std::uint32_t, SimTime> departures;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const ScenarioEvent& ev = spec_.events[i];
    const std::string where =
        "event " + std::to_string(i + 1) + " (" + to_string(ev.kind) + ")";
    if (ev.at > horizon) {
      return fail(where + " fires at " + format_duration(ev.at) +
                  ", beyond the workload horizon " +
                  format_duration(horizon));
    }
    if (is_wheel_event(ev.kind)) {
      if (ev.sw >= spec_.topology.switches) {
        return fail(where + ": sw=" + std::to_string(ev.sw) +
                    " out of range (topology has " +
                    std::to_string(spec_.topology.switches) + " switches)");
      }
      if (!spec_.config.failover_enabled) {
        return fail(where + " needs the failure wheel; set failover = true "
                            "in [config]");
      }
      if (spec_.config.mode != core::ControlMode::kLazyCtrl) {
        return fail(where + " needs grouped switches; failure wheels only "
                            "exist under mode = lazyctrl");
      }
    }
    if (ev.kind == EventKind::kTenantArrival ||
        ev.kind == EventKind::kTenantDeparture) {
      if (ev.tenant >= spec_.topology.tenants) {
        return fail(where + ": tenant=" + std::to_string(ev.tenant) +
                    " out of range (topology has " +
                    std::to_string(spec_.topology.tenants) + " tenants)");
      }
      auto& seen = ev.kind == EventKind::kTenantArrival ? arrivals
                                                        : departures;
      if (!seen.emplace(ev.tenant, ev.at).second) {
        return fail(where + ": tenant " + std::to_string(ev.tenant) +
                    " already has a " + to_string(ev.kind) + " event");
      }
    }
    if (ev.kind == EventKind::kMigrationBurst &&
        ev.hosts > topology_.host_count()) {
      return fail(where + ": hosts=" + std::to_string(ev.hosts) +
                  " exceeds the topology's " +
                  std::to_string(topology_.host_count()) + " hosts");
    }
  }
  for (const auto& [tenant, at] : departures) {
    const auto it = arrivals.find(tenant);
    if (it != arrivals.end() && it->second >= at) {
      return fail("tenant " + std::to_string(tenant) +
                  " departs at " + format_duration(at) +
                  ", not after its arrival at " + format_duration(it->second));
    }
  }
  // Same rule the parser enforces with line numbers (spec.cpp), repeated
  // here for programmatically built specs: a recovery scheduled before
  // every failure of its component is a script bug; a recovery with no
  // matching failure anywhere stays a runtime no-op skip.
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const ScenarioEvent& ev = spec_.events[i];
    const std::optional<EventKind> fail_kind = paired_failure_kind(ev.kind);
    if (!fail_kind) continue;
    std::optional<SimTime> earliest;
    for (const ScenarioEvent& other : spec_.events) {
      if (other.kind == *fail_kind && other.sw == ev.sw &&
          (!earliest || other.at < *earliest)) {
        earliest = other.at;
      }
    }
    if (earliest && ev.at < *earliest) {
      return fail("event " + std::to_string(i + 1) + " (" +
                  to_string(ev.kind) + "): sw=" + std::to_string(ev.sw) +
                  " at " + format_duration(ev.at) + " fires before its " +
                  to_string(*fail_kind) + " at " +
                  format_duration(*earliest));
    }
  }
  return true;
}

bool ScenarioRunner::prepare_topology(std::string* error) {
  // Re-checked here because apply_override() can break it after a clean
  // parse, and it must hold BEFORE build_multi_tenant: an inverted range
  // would send the builder's uniform VM-count draw into a 2^64-sized
  // span.
  if (spec_.topology.min_vms_per_tenant > spec_.topology.max_vms_per_tenant) {
    if (error) {
      *error = "[topology] min_vms_per_tenant exceeds max_vms_per_tenant";
    }
    return false;
  }
  if (!topology_built_) {
    Rng rng = Rng::stream(spec_.seed, kTopologyStream);
    topo::MultiTenantOptions opt;
    opt.switch_count = spec_.topology.switches;
    opt.tenant_count = spec_.topology.tenants;
    opt.min_vms_per_tenant = spec_.topology.min_vms_per_tenant;
    opt.max_vms_per_tenant = spec_.topology.max_vms_per_tenant;
    opt.vms_per_switch = spec_.topology.vms_per_switch;
    topology_ = topo::build_multi_tenant(opt, rng);
    topology_built_ = true;
  }
  return true;
}

bool ScenarioRunner::validate_only(std::string* error) {
  if (!prepare_topology(error)) return false;
  return validate(error);
}

void ScenarioRunner::build_trace() {
  Rng rng = Rng::stream(spec_.seed, kWorkloadStream);
  const WorkloadSpec& w = spec_.workload;
  workload::Trace trace;
  switch (w.kind) {
    case WorkloadKind::kRealLike: {
      workload::RealLikeOptions opt;
      opt.total_flows = w.flows;
      opt.horizon = w.horizon;
      opt.profile = w.flat_profile ? workload::DiurnalProfile::flat()
                                   : workload::DiurnalProfile::business_day();
      trace = workload::generate_real_like(topology_, opt, rng);
      break;
    }
    case WorkloadKind::kSynthetic: {
      workload::SyntheticOptions opt;
      opt.p = w.p;
      opt.q = w.q;
      opt.total_flows = w.flows;
      opt.horizon = w.horizon;
      opt.profile = w.flat_profile ? workload::DiurnalProfile::flat()
                                   : workload::DiurnalProfile::business_day();
      trace = workload::generate_synthetic(topology_, opt, rng);
      break;
    }
    case WorkloadKind::kDriftingLocality: {
      workload::DriftingLocalityOptions opt;
      opt.total_flows = w.flows;
      opt.community_count = w.communities;
      opt.intra_community_share = w.intra_share;
      opt.phases = w.phases;
      opt.drift_fraction = w.drift_fraction;
      opt.horizon = w.horizon;
      trace = workload::generate_drifting_locality(topology_, opt, rng);
      break;
    }
  }

  // Workload-shaping events, applied to the trace before replay. Surges
  // first (clones draw their arrival inside the surge window), tenant
  // activity windows last so the "no flows while dormant" invariant holds
  // even when a surge window straddles an arrival or departure.
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const ScenarioEvent& ev = spec_.events[i];
    if (ev.kind != EventKind::kTrafficSurge) continue;
    const SimTime to = std::min<SimTime>(ev.at + ev.duration, w.horizon);
    if (to <= ev.at) {
      ++counts_.skipped;  // window clamped away: nothing to amplify
      continue;
    }
    Rng surge_rng = Rng::stream(spec_.seed, kSurgeStreamBase + i);
    trace = workload::surge_trace(trace, ev.at, to, ev.factor, surge_rng);
    ++counts_.applied;
  }
  const auto windows = tenant_activity_windows();
  if (!windows.empty()) {
    trace = workload::restrict_tenant_windows(trace, topology_, windows);
  }
  trace.horizon = w.horizon;
  trace_ = std::move(trace);
}

std::vector<workload::TenantActivityWindow>
ScenarioRunner::tenant_activity_windows() const {
  // One entry per lifecycle event; restrict_tenant_windows intersects
  // entries of the same tenant, so arrival + departure compose to
  // [arrival, departure).
  std::vector<workload::TenantActivityWindow> windows;
  for (const ScenarioEvent& ev : spec_.events) {
    if (ev.kind == EventKind::kTenantArrival) {
      windows.push_back(
          {TenantId{ev.tenant}, ev.at, spec_.workload.horizon + 1});
    } else if (ev.kind == EventKind::kTenantDeparture) {
      windows.push_back({TenantId{ev.tenant}, 0, ev.at});
    }
  }
  return windows;
}

void ScenarioRunner::schedule_migration_burst(const ScenarioEvent& ev,
                                              std::uint64_t stream_id) {
  Rng rng = Rng::stream(spec_.seed, stream_id);
  // Only hosts whose tenant is active for the WHOLE burst window are
  // migratable: moving a dormant (not-yet-arrived / departed) tenant's
  // VM would re-announce a host the dormancy seams explicitly withheld.
  // Same window composition as the trace filter, by construction.
  const auto active =
      workload::intersect_tenant_windows(tenant_activity_windows());
  std::vector<HostId> eligible;
  eligible.reserve(topology_.host_count());
  for (const topo::HostInfo& h : topology_.hosts()) {
    const auto it = active.find(h.tenant.value());
    if (it != active.end() && (ev.at < it->second.first ||
                               ev.at + ev.spread >= it->second.second)) {
      continue;
    }
    eligible.push_back(h.id);
  }
  const std::size_t want =
      std::min<std::size_t>(ev.hosts, eligible.size());
  if (want == 0) {
    ++counts_.skipped;
    return;
  }
  const std::size_t switch_count = topology_.switch_count();
  std::unordered_set<std::uint32_t> picked;
  picked.reserve(want);
  while (picked.size() < want) {
    const HostId host = eligible[rng.next_below(eligible.size())];
    if (!picked.insert(host.value()).second) continue;
    // A destination different from the current attachment; the burst is
    // scheduled pre-replay so "current" is the bootstrap placement (an
    // earlier burst moving the same host simply changes it again).
    const SwitchId from = topology_.host_info(host).attached_switch;
    auto to = static_cast<std::uint32_t>(rng.next_below(switch_count));
    if (switch_count > 1 && SwitchId{to} == from) {
      to = (to + 1) % static_cast<std::uint32_t>(switch_count);
    }
    const SimTime when =
        ev.at + (ev.spread > 0
                     ? static_cast<SimTime>(rng.next_below(
                           static_cast<std::uint64_t>(ev.spread) + 1))
                     : 0);
    net_->schedule_migration(host, SwitchId{to}, when);
  }
  ++counts_.applied;
}

void ScenarioRunner::apply_event(const ScenarioEvent& ev) {
  bool applied = false;
  switch (ev.kind) {
    case EventKind::kCheckpoint:
      // The snapshot is taken at the END of this function (after the
      // counters, the backlog-peak rebase and the invariant check), so
      // it records the state exactly as the uninterrupted run carries it
      // past this fence.
      applied = true;
      break;
    case EventKind::kFailSwitch:
      applied = net_->inject_switch_failure(SwitchId{ev.sw});
      break;
    case EventKind::kRecoverSwitch:
      applied = net_->inject_switch_recovery(SwitchId{ev.sw});
      break;
    case EventKind::kFailPeerLink:
      applied = net_->inject_peer_link_failure(SwitchId{ev.sw});
      break;
    case EventKind::kRecoverPeerLink:
      applied = net_->inject_peer_link_recovery(SwitchId{ev.sw});
      break;
    case EventKind::kFailControlLink:
      applied = net_->inject_control_link_failure(SwitchId{ev.sw});
      break;
    case EventKind::kRecoverControlLink:
      applied = net_->inject_control_link_recovery(SwitchId{ev.sw});
      break;
    case EventKind::kControllerOutage:
      net_->begin_controller_outage(ev.duration);
      applied = true;
      break;
    case EventKind::kTenantArrival:
      applied = net_->activate_tenant(TenantId{ev.tenant});
      break;
    case EventKind::kTenantDeparture:
      applied = net_->deactivate_tenant(TenantId{ev.tenant});
      break;
    case EventKind::kForceRegroup:
      applied = net_->force_regroup();
      break;
    case EventKind::kSetControlLoss:
      net_->set_control_loss(ev.rate);
      applied = true;
      break;
    case EventKind::kSetControlDup:
      net_->set_control_dup(ev.rate);
      applied = true;
      break;
    case EventKind::kSetCtrlQueueCap:
      net_->set_ctrl_queue_cap(static_cast<std::size_t>(ev.cap));
      applied = true;
      break;
    case EventKind::kReconcile:
      applied = net_->reconcile_state();
      break;
    case EventKind::kMigrationBurst:
    case EventKind::kTrafficSurge:
      assert(false && "handled at build time, never scheduled");
      break;
  }
  ++(applied ? counts_.applied : counts_.skipped);
  obs::trace_instant(obs::TraceEventType::kScenarioEvent,
                     net_->simulator().now(),
                     static_cast<std::uint64_t>(ev.kind), applied ? 1 : 0);
  // Phase fence for the outage backlog peak: per-phase reports should
  // see the peak reached since the previous script event, not the
  // all-run maximum.
  net_->controller().reset_outage_queue_peak();
  // Script events fence the latency-attribution phases: every stage
  // histogram from here on accumulates into a window labelled by this
  // event, so reports can contrast e.g. pre-outage vs outage latency.
  if (obs::flow_attribution_enabled()) {
    obs::flow_recorder().begin_phase(to_string(ev.kind),
                                     net_->simulator().now());
  }
  if (check_invariants_) {
    run_invariant_check(std::string("after ") + to_string(ev.kind) + " at " +
                        format_duration(net_->simulator().now()));
  }
  if (ev.kind == EventKind::kCheckpoint) take_checkpoint();
}

void ScenarioRunner::take_checkpoint() {
  Snapshot snap;
  snap.at = net_->simulator().now();
  std::string err;
  if (ckpt::StateAccess::save(*this, next_snapshot_index_, &snap.bytes,
                              &err)) {
    ++next_snapshot_index_;
  } else {
    snap.bytes.clear();
    snap.error = std::move(err);
  }
  snapshots_.push_back(std::move(snap));
}

void ScenarioRunner::add_checkpoint_times(std::vector<SimTime> times) {
  assert(!ran_ && "add_checkpoint_times must precede run()");
  extra_checkpoint_times_ = std::move(times);
}

void ScenarioRunner::run_invariant_check(const std::string& where) {
  constexpr std::size_t kMaxViolations = 64;
  if (invariant_violations_.size() >= kMaxViolations) return;
  const core::InvariantReport report = core::check_invariants(*net_);
  for (const std::string& v : report.violations) {
    if (invariant_violations_.size() >= kMaxViolations) {
      invariant_violations_.push_back("further violations suppressed");
      return;
    }
    invariant_violations_.push_back(where + ": " + v);
  }
}

bool ScenarioRunner::run(std::string* error) {
  assert(!ran_ && "a ScenarioRunner runs exactly once");
  ran_ = true;

  if (!prepare_topology(error)) return false;
  if (!validate(error)) return false;
  build_trace();

  core::Config config = spec_.config;
  config.seed = spec_.seed;
  net_ = std::make_unique<core::Network>(topology_, config);

  // Tenants with an arrival event stay dormant through bootstrap.
  std::vector<TenantId> dormant;
  for (const ScenarioEvent& ev : spec_.events) {
    if (ev.kind == EventKind::kTenantArrival) {
      dormant.push_back(TenantId{ev.tenant});
    }
  }
  if (!dormant.empty()) net_->set_dormant_tenants(dormant);

  if (spec_.bootstrap_history && spec_.config.mode ==
                                     core::ControlMode::kLazyCtrl) {
    const graph::WeightedGraph history = workload::build_intensity_graph(
        *trace_, topology_, 0, std::min<SimDuration>(kHour,
                                                     trace_->horizon));
    net_->bootstrap(history);
  } else {
    net_->bootstrap();
  }

  // Schedule the event script. Build-time events (surges) were already
  // consumed; migration bursts expand into scheduled migrations here;
  // the rest become simulator events fired through the Network's
  // scenario seams, fenced between replay spans like any control event.
  script_event_ids_.assign(spec_.events.size(), 0);
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const ScenarioEvent& ev = spec_.events[i];
    if (ev.kind == EventKind::kTrafficSurge) continue;
    if (ev.kind == EventKind::kMigrationBurst) {
      schedule_migration_burst(ev, kBurstStreamBase + i);
      continue;
    }
    ++counts_.scheduled;
    script_event_ids_[i] = net_->simulator().schedule_at(
        ev.at, [this, i] { apply_event(spec_.events[i]); });
  }
  // --checkpoint-every fences, scheduled after the script so a same-time
  // script event commits before the snapshot records it.
  extra_event_ids_.assign(extra_checkpoint_times_.size(), 0);
  for (std::size_t i = 0; i < extra_checkpoint_times_.size(); ++i) {
    extra_event_ids_[i] = net_->simulator().schedule_at(
        extra_checkpoint_times_[i], [this] { take_checkpoint(); });
  }

  net_->replay(*trace_);
  end_of_run_checks();
  return true;
}

void ScenarioRunner::end_of_run_checks() {
  if (!check_invariants_) return;
  run_invariant_check("end of run");
  // Trace-level conservation, only meaningful once the replay is done:
  // every flow the (shaped) trace contains must have been injected and
  // counted exactly once.
  if (net_->metrics().flows_seen != trace_->flows.size()) {
    invariant_violations_.push_back(
        "end of run: trace conservation: flows_seen=" +
        std::to_string(net_->metrics().flows_seen) +
        " != trace flow count=" + std::to_string(trace_->flows.size()));
  }
}

std::unique_ptr<ScenarioRunner> ScenarioRunner::restore(
    const std::vector<std::uint8_t>& bytes, std::string* error) {
  return ckpt::StateAccess::restore_runner(bytes, error);
}

bool ScenarioRunner::finish(std::string* error) {
  if (!restored_ || ran_) {
    if (error) *error = "finish() requires a freshly restored runner";
    return false;
  }
  ran_ = true;
  net_->resume_replay(*trace_, resume_cursor_);
  end_of_run_checks();
  return true;
}

bool ScenarioRunner::save_now(std::vector<std::uint8_t>* out,
                              std::string* error) {
  if (!restored_ || ran_) {
    if (error) *error = "save_now() requires a freshly restored runner";
    return false;
  }
  return ckpt::StateAccess::save(*this, restore_index_, out, error);
}

}  // namespace lazyctrl::scenario
