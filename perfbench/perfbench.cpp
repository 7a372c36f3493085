// perfbench — one workload of the repo benchmark, in one process.
//
// Drives the same pipeline ScenarioRunner::run does, but step by step
// through the public entry points, so every layer is timed from outside
// at its own call:
//
//   topo::build_multi_tenant            -> topo.build_ms
//   workload::generate_*                -> workload.generate_ms
//   surge_trace / restrict_tenant_windows -> workload.shape_ms
//   workload::build_intensity_graph     -> workload.intensity_ms
//   core::Network(...) + bootstrap      -> core.bootstrap_ms
//   Network::replay                     -> core.replay_ms
//   core::check_invariants              -> core.invariants_ms
//   ScenarioRunner::restore / finish / save_now -> ckpt.*
//
// Correctness gate (any failure makes the run fail, not just a metric):
//   * each step-by-step run is RunMetrics::identical_to a plain
//     ScenarioRunner::run of the same spec and seed;
//   * check_invariants reports no violation (the reference run also
//     checks after every script event);
//   * flows_seen equals the shaped-trace size;
//   * restore-then-finish from a mid-horizon snapshot is identical to the
//     uninterrupted run, and save_now reproduces the snapshot bytes.
//
// Usage:
//   perfbench --spec FILE --seed N --seconds S --trace 0|1 [--set k=v]...
//
// Prints one JSON object on stdout: {"ok", "attempted", "failed",
// "errors", "build", "metrics"}. With --trace 0 the metrics are the
// whole-run ones measured with tracing off; with --trace 1 they are the
// per-layer ones, the obs::TraceRecorder spans and the micro-timings.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "core/invariants.h"
#include "core/network.h"
#include "core/sgi.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace {

using namespace lazyctrl;
using Clock = std::chrono::steady_clock;
using scenario::EventKind;
using scenario::ScenarioEvent;
using scenario::ScenarioSpec;

// The Rng stream ids ScenarioRunner derives from the scenario seed
// (src/scenario/runner.cpp). If they drift, the pipeline-identity gate
// fails, so the copy cannot silently go stale.
constexpr std::uint64_t kTopologyStream = 0x5C01;
constexpr std::uint64_t kWorkloadStream = 0x5C02;
constexpr std::uint64_t kSurgeStreamBase = 0x5C10'0000;
constexpr std::uint64_t kBurstStreamBase = 0x5C20'0000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

struct Args {
  std::string spec_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::string> overrides;
};

bool parse_args(int argc, char** argv, Args* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value after " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--spec") {
      out->spec_path = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(out->seconds > 0.0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      out->trace = value == "1";
    } else if (flag == "--set") {
      out->overrides.push_back(value);
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (out->spec_path.empty()) {
    *error = "--spec is required";
    return false;
  }
  return true;
}

/// Collects gate failures; the run fails when any is recorded.
struct Gate {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records one gated operation; `problems` empty means it passed.
  void record(const std::string& what, std::vector<std::string> problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (std::string& p : problems) {
      if (errors.size() < 32) errors.push_back(what + ": " + std::move(p));
    }
  }
};

// ---------------------------------------------------------------------------
// Reference: a plain ScenarioRunner::run with a mid-horizon checkpoint.

struct Reference {
  std::optional<core::RunMetrics> metrics;
  std::vector<std::uint8_t> snapshot;
  std::size_t trace_flows = 0;
};

Reference run_reference(const ScenarioSpec& spec, Gate& gate) {
  Reference ref;
  std::vector<std::string> problems;
  scenario::ScenarioRunner runner(spec);
  runner.enable_invariant_checks();
  runner.add_checkpoint_times({spec.workload.horizon / 2});
  std::string err;
  if (!runner.run(&err)) {
    problems.push_back("ScenarioRunner::run failed: " + err);
  } else {
    for (const std::string& v : runner.invariant_violations()) {
      problems.push_back("invariant: " + v);
    }
    if (runner.snapshots().size() != 1 ||
        runner.snapshots()[0].bytes.empty()) {
      problems.push_back(
          "no mid-horizon snapshot" +
          (runner.snapshots().empty()
               ? std::string()
               : ": " + runner.snapshots()[0].error));
    } else {
      ref.snapshot = runner.snapshots()[0].bytes;
    }
    ref.metrics.emplace(runner.metrics());
    ref.trace_flows = runner.trace().flows.size();
  }
  gate.record("reference run", std::move(problems));
  return ref;
}

/// Empty when `m` is bit-identical to the reference run's metrics.
std::string divergence(const Reference& ref, const core::RunMetrics& m) {
  if (!ref.metrics) return "no reference metrics";
  if (m.identical_to(*ref.metrics)) return {};
  return "RunMetrics differ from the plain ScenarioRunner::run: " +
         m.diff_report(*ref.metrics);
}

// ---------------------------------------------------------------------------
// The step-by-step pipeline.

struct Pipeline {
  topo::Topology topology;
  workload::Trace trace;
  std::optional<graph::WeightedGraph> history;
  std::unique_ptr<core::Network> net;
  std::size_t wheel_events_applied = 0;

  double topo_ms = 0, generate_ms = 0, shape_ms = 0, intensity_ms = 0;
  double bootstrap_ms = 0, replay_ms = 0, invariants_ms = 0;
  double setup_ms = 0, run_ms = 0;
  std::vector<std::string> problems;
};

workload::Trace generate(const ScenarioSpec& spec,
                         const topo::Topology& topology) {
  Rng rng = Rng::stream(spec.seed, kWorkloadStream);
  const scenario::WorkloadSpec& w = spec.workload;
  const workload::DiurnalProfile profile =
      w.flat_profile ? workload::DiurnalProfile::flat()
                     : workload::DiurnalProfile::business_day();
  switch (w.kind) {
    case scenario::WorkloadKind::kRealLike: {
      workload::RealLikeOptions opt;
      opt.total_flows = w.flows;
      opt.horizon = w.horizon;
      opt.profile = profile;
      return workload::generate_real_like(topology, opt, rng);
    }
    case scenario::WorkloadKind::kSynthetic: {
      workload::SyntheticOptions opt;
      opt.p = w.p;
      opt.q = w.q;
      opt.total_flows = w.flows;
      opt.horizon = w.horizon;
      opt.profile = profile;
      return workload::generate_synthetic(topology, opt, rng);
    }
    case scenario::WorkloadKind::kDriftingLocality: {
      workload::DriftingLocalityOptions opt;
      opt.total_flows = w.flows;
      opt.community_count = w.communities;
      opt.intra_community_share = w.intra_share;
      opt.phases = w.phases;
      opt.drift_fraction = w.drift_fraction;
      opt.horizon = w.horizon;
      return workload::generate_drifting_locality(topology, opt, rng);
    }
  }
  return {};
}

std::vector<workload::TenantActivityWindow> activity_windows(
    const ScenarioSpec& spec) {
  std::vector<workload::TenantActivityWindow> windows;
  for (const ScenarioEvent& ev : spec.events) {
    if (ev.kind == EventKind::kTenantArrival) {
      windows.push_back(
          {TenantId{ev.tenant}, ev.at, spec.workload.horizon + 1});
    } else if (ev.kind == EventKind::kTenantDeparture) {
      windows.push_back({TenantId{ev.tenant}, 0, ev.at});
    }
  }
  return windows;
}

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

/// One scripted event through the Network's scenario seams.
bool apply_event(core::Network& net, const ScenarioEvent& ev) {
  const SwitchId sw{ev.sw};
  switch (ev.kind) {
    case EventKind::kFailSwitch: return net.inject_switch_failure(sw);
    case EventKind::kRecoverSwitch: return net.inject_switch_recovery(sw);
    case EventKind::kFailPeerLink: return net.inject_peer_link_failure(sw);
    case EventKind::kRecoverPeerLink:
      return net.inject_peer_link_recovery(sw);
    case EventKind::kFailControlLink:
      return net.inject_control_link_failure(sw);
    case EventKind::kRecoverControlLink:
      return net.inject_control_link_recovery(sw);
    case EventKind::kControllerOutage:
      net.begin_controller_outage(ev.duration);
      return true;
    case EventKind::kTenantArrival:
      return net.activate_tenant(TenantId{ev.tenant});
    case EventKind::kTenantDeparture:
      return net.deactivate_tenant(TenantId{ev.tenant});
    case EventKind::kForceRegroup: return net.force_regroup();
    case EventKind::kSetControlLoss:
      net.set_control_loss(ev.rate);
      return true;
    case EventKind::kSetControlDup:
      net.set_control_dup(ev.rate);
      return true;
    case EventKind::kSetCtrlQueueCap:
      net.set_ctrl_queue_cap(static_cast<std::size_t>(ev.cap));
      return true;
    case EventKind::kReconcile: return net.reconcile_state();
    case EventKind::kCheckpoint:
    case EventKind::kMigrationBurst:
    case EventKind::kTrafficSurge:
      break;  // rejected up front / consumed at build time
  }
  return false;
}

void schedule_migration_burst(const ScenarioSpec& spec, std::size_t index,
                              const topo::Topology& topology,
                              core::Network& net) {
  const ScenarioEvent& ev = spec.events[index];
  Rng rng = Rng::stream(spec.seed, kBurstStreamBase + index);
  const auto active =
      workload::intersect_tenant_windows(activity_windows(spec));
  std::vector<HostId> eligible;
  eligible.reserve(topology.host_count());
  for (const topo::HostInfo& h : topology.hosts()) {
    const auto it = active.find(h.tenant.value());
    if (it != active.end() && (ev.at < it->second.first ||
                               ev.at + ev.spread >= it->second.second)) {
      continue;
    }
    eligible.push_back(h.id);
  }
  const std::size_t want = std::min<std::size_t>(ev.hosts, eligible.size());
  const std::size_t switch_count = topology.switch_count();
  std::unordered_set<std::uint32_t> picked;
  while (picked.size() < want) {
    const HostId host = eligible[rng.next_below(eligible.size())];
    if (!picked.insert(host.value()).second) continue;
    const SwitchId from = topology.host_info(host).attached_switch;
    auto to = static_cast<std::uint32_t>(rng.next_below(switch_count));
    if (switch_count > 1 && SwitchId{to} == from) {
      to = (to + 1) % static_cast<std::uint32_t>(switch_count);
    }
    const SimTime when =
        ev.at + (ev.spread > 0
                     ? static_cast<SimTime>(rng.next_below(
                           static_cast<std::uint64_t>(ev.spread) + 1))
                     : 0);
    net.schedule_migration(host, SwitchId{to}, when);
  }
}

/// Runs the whole scenario step by step. The returned pipeline keeps the
/// final network (for micro-timings) until the caller drops it.
std::unique_ptr<Pipeline> run_pipeline(const ScenarioSpec& spec) {
  auto p = std::make_unique<Pipeline>();
  const auto t0 = Clock::now();

  Rng topo_rng = Rng::stream(spec.seed, kTopologyStream);
  topo::MultiTenantOptions topo_opt;
  topo_opt.switch_count = spec.topology.switches;
  topo_opt.tenant_count = spec.topology.tenants;
  topo_opt.min_vms_per_tenant = spec.topology.min_vms_per_tenant;
  topo_opt.max_vms_per_tenant = spec.topology.max_vms_per_tenant;
  topo_opt.vms_per_switch = spec.topology.vms_per_switch;
  p->topology = topo::build_multi_tenant(topo_opt, topo_rng);
  const auto t1 = Clock::now();

  workload::Trace trace = generate(spec, p->topology);
  const auto t2 = Clock::now();

  const SimDuration horizon = spec.workload.horizon;
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& ev = spec.events[i];
    if (ev.kind != EventKind::kTrafficSurge) continue;
    const SimTime to = std::min<SimTime>(ev.at + ev.duration, horizon);
    if (to <= ev.at) continue;
    Rng surge_rng = Rng::stream(spec.seed, kSurgeStreamBase + i);
    trace = workload::surge_trace(trace, ev.at, to, ev.factor, surge_rng);
  }
  const auto windows = activity_windows(spec);
  if (!windows.empty()) {
    trace = workload::restrict_tenant_windows(trace, p->topology, windows);
  }
  trace.horizon = horizon;
  p->trace = std::move(trace);
  const auto t3 = Clock::now();

  const bool history = spec.bootstrap_history &&
                       spec.config.mode == core::ControlMode::kLazyCtrl;
  if (history) {
    p->history = workload::build_intensity_graph(
        p->trace, p->topology, 0, std::min<SimDuration>(kHour, horizon));
  }
  const auto t4 = Clock::now();

  core::Config config = spec.config;
  config.seed = spec.seed;
  p->net = std::make_unique<core::Network>(p->topology, config);
  std::vector<TenantId> dormant;
  for (const ScenarioEvent& ev : spec.events) {
    if (ev.kind == EventKind::kTenantArrival) {
      dormant.push_back(TenantId{ev.tenant});
    }
  }
  if (!dormant.empty()) p->net->set_dormant_tenants(dormant);
  if (history) {
    p->net->bootstrap(*p->history);
  } else {
    p->net->bootstrap();
  }
  const auto t5 = Clock::now();

  core::Network& net = *p->net;
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& ev = spec.events[i];
    if (ev.kind == EventKind::kTrafficSurge) continue;
    if (ev.kind == EventKind::kMigrationBurst) {
      schedule_migration_burst(spec, i, p->topology, net);
      continue;
    }
    Pipeline* pl = p.get();
    net.simulator().schedule_at(ev.at, [pl, &net, &ev] {
      const bool applied = apply_event(net, ev);
      if (applied && is_wheel_event(ev.kind)) ++pl->wheel_events_applied;
      obs::trace_instant(obs::TraceEventType::kScenarioEvent,
                         net.simulator().now(),
                         static_cast<std::uint64_t>(ev.kind),
                         applied ? 1 : 0);
      net.controller().reset_outage_queue_peak();
    });
  }
  const auto t6 = Clock::now();

  net.replay(p->trace);
  const auto t7 = Clock::now();

  const core::InvariantReport report = core::check_invariants(net);
  for (const std::string& v : report.violations) {
    p->problems.push_back("invariant: " + v);
  }
  if (net.metrics().flows_seen != p->trace.flows.size()) {
    p->problems.push_back(
        "flows_seen=" + std::to_string(net.metrics().flows_seen) +
        " != shaped-trace flows=" + std::to_string(p->trace.flows.size()));
  }
  const auto t8 = Clock::now();

  p->topo_ms = ms_between(t0, t1);
  p->generate_ms = ms_between(t1, t2);
  p->shape_ms = ms_between(t2, t3);
  p->intensity_ms = ms_between(t3, t4);
  p->bootstrap_ms = ms_between(t4, t5);
  p->replay_ms = ms_between(t6, t7);
  p->invariants_ms = ms_between(t7, t8);
  p->setup_ms = ms_between(t0, t6);
  p->run_ms = ms_between(t0, t8);
  return p;
}

/// Gates one pipeline pass: its own end-of-run checks plus identity with
/// the reference run.
void gate_pipeline(Gate& gate, const char* what, const Reference& ref,
                   Pipeline& p) {
  std::vector<std::string> problems = std::move(p.problems);
  std::string d = divergence(ref, p.net->metrics());
  if (!d.empty()) problems.push_back(std::move(d));
  gate.record(what, std::move(problems));
}

/// One warm start from the reference snapshot: restore, optionally
/// save_now (which must reproduce the snapshot), then finish.
struct ResumePass {
  bool restored = false;
  double restore_ms = 0, save_ms = 0, finish_ms = 0;
};

ResumePass run_resume(const Reference& ref, bool with_save, Gate& gate) {
  ResumePass out;
  std::vector<std::string> problems;
  std::string err;
  const auto t0 = Clock::now();
  std::unique_ptr<scenario::ScenarioRunner> resumed =
      scenario::ScenarioRunner::restore(ref.snapshot, &err);
  out.restore_ms = ms_between(t0, Clock::now());
  if (!resumed) {
    gate.record("restore + finish", {"restore failed: " + err});
    return out;
  }
  out.restored = true;
  if (with_save) {
    std::vector<std::uint8_t> again;
    const auto s0 = Clock::now();
    const bool saved = resumed->save_now(&again, &err);
    out.save_ms = ms_between(s0, Clock::now());
    if (!saved) {
      problems.push_back("save_now failed: " + err);
    } else if (again != ref.snapshot) {
      problems.push_back("save_now does not reproduce the snapshot");
    }
  }
  const auto f0 = Clock::now();
  const bool finished = resumed->finish(&err);
  out.finish_ms = ms_between(f0, Clock::now());
  if (!finished) {
    problems.push_back("finish failed: " + err);
  } else {
    std::string d = divergence(ref, resumed->metrics());
    if (!d.empty()) problems.push_back(std::move(d));
  }
  gate.record("restore + finish", std::move(problems));
  return out;
}

// ---------------------------------------------------------------------------
// Micro-timings on a finished network (traced run only).

struct MicroTimings {
  double decide_ns = 0.0;
  double query_ns = 0.0;
  double candidates_per_query = 0.0;
  double partition_ms = 0.0;
};

MicroTimings time_micro(Pipeline& p, const ScenarioSpec& spec) {
  constexpr std::size_t kSample = 1 << 16;
  constexpr int kRounds = 5;
  MicroTimings out;
  core::Network& net = *p.net;
  const topo::Topology& topo = net.topology();  // post-migration placement
  const std::vector<workload::Flow>& flows = p.trace.flows;
  if (flows.empty()) return out;

  // A fixed, evenly strided packet sample, grouped by ingress switch and
  // stamped at the horizon so every round sees the same table state.
  const std::size_t n = std::min(kSample, flows.size());
  std::map<std::uint32_t, std::vector<net::Packet>> by_switch;
  for (std::size_t i = 0; i < n; ++i) {
    const workload::Flow& f = flows[i * flows.size() / n];
    const topo::HostInfo& src = topo.host_info(f.src);
    net::Packet pkt =
        core::Network::make_flow_packet(src, topo.host_info(f.dst), f);
    pkt.created_at = spec.workload.horizon;
    by_switch[src.attached_switch.value()].push_back(pkt);
  }

  core::EdgeSwitch::DecisionBatch batch;
  std::vector<double> decide_rounds;
  for (int r = 0; r <= kRounds; ++r) {  // round 0 warms up
    const auto t0 = Clock::now();
    for (auto& [sw, pkts] : by_switch) {
      for (std::size_t b = 0; b < pkts.size(); b += 64) {
        batch.clear();
        const std::size_t len = std::min<std::size_t>(64, pkts.size() - b);
        net.edge_switch(SwitchId{sw}).decide_batch(
            std::span<const net::Packet>(pkts.data() + b, len),
            spec.config.mode, batch);
      }
    }
    if (r > 0) decide_rounds.push_back(ms_between(t0, Clock::now()));
  }
  out.decide_ns = median(decide_rounds) * 1e6 / static_cast<double>(n);

  std::vector<SwitchId> cands;
  std::vector<double> query_rounds;
  std::uint64_t candidates = 0;
  for (int r = 0; r <= kRounds; ++r) {
    candidates = 0;
    const auto t0 = Clock::now();
    for (auto& [sw, pkts] : by_switch) {
      const core::GFib& gfib = net.edge_switch(SwitchId{sw}).gfib();
      for (const net::Packet& pkt : pkts) {
        cands.clear();
        gfib.query_into(BloomHash::of(pkt.dst_mac), cands);
        candidates += cands.size();
      }
    }
    if (r > 0) query_rounds.push_back(ms_between(t0, Clock::now()));
  }
  out.query_ns = median(query_rounds) * 1e6 / static_cast<double>(n);
  out.candidates_per_query =
      static_cast<double>(candidates) / static_cast<double>(n);

  if (p.history) {
    const core::Config& c = net.config();
    const core::Sgi sgi(core::SgiOptions{
        c.grouping.group_size_limit, c.grouping.max_incupdate_iterations,
        c.grouping.parallel_incupdate, 3});
    Rng rng(c.seed);
    const auto t0 = Clock::now();
    static_cast<void>(sgi.initial_grouping(*p.history, rng));
    out.partition_ms = ms_between(t0, Clock::now());
  }
  return out;
}

// ---------------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string err;
  if (!parse_args(argc, argv, &args, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  scenario::ParseResult parsed = scenario::parse_scenario_file(args.spec_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.spec_path.c_str(),
                 parsed.error_text().c_str());
    return 2;
  }
  ScenarioSpec spec = std::move(parsed.spec);
  args.overrides.push_back("scenario.seed=" + std::to_string(args.seed));
  for (const std::string& o : args.overrides) {
    if (!scenario::apply_override(spec, o, &err)) {
      std::fprintf(stderr, "perfbench: --set %s: %s\n", o.c_str(),
                   err.c_str());
      return 2;
    }
  }
  for (const ScenarioEvent& ev : spec.events) {
    if (ev.kind == EventKind::kCheckpoint) {
      std::fprintf(stderr, "perfbench: checkpoint_at events are not "
                           "supported in benchmark specs\n");
      return 2;
    }
  }
  if (spec.config.runtime.num_shards != 1) {
    std::fprintf(stderr, "perfbench: workloads run single-threaded "
                         "(runtime.num_shards = 1)\n");
    return 2;
  }

  Gate gate;
  const Reference ref = run_reference(spec, gate);

  std::vector<double> setup_ms, run_ms, replay_ms, flows_per_s, resume_ms;
  std::vector<double> topo_ms, generate_ms, shape_ms, intensity_ms;
  std::vector<double> bootstrap_ms, invariants_ms, unattributed_ms;
  std::vector<double> restore_ms, finish_ms, save_ms;
  std::vector<double> traced_run_ms, gfib_rebuild_ms;
  std::vector<double> decide_ns, query_ns, partition_ms;
  double candidates_per_query = 0.0;
  double events = 0.0, trace_mb = 0.0, gfib_bytes = 0.0, groups = 0.0;
  double rules = 0.0, wheel_events = 0.0, failover_detections = 0.0;

  const auto loop_start = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - loop_start).count();
  };
  do {
    {
      std::unique_ptr<Pipeline> p = run_pipeline(spec);
      gate_pipeline(gate, "step-by-step pipeline", ref, *p);

      const double flows = static_cast<double>(p->trace.flows.size());
      setup_ms.push_back(p->setup_ms);
      run_ms.push_back(p->run_ms);
      replay_ms.push_back(p->replay_ms);
      flows_per_s.push_back(flows / (p->replay_ms / 1e3));
      topo_ms.push_back(p->topo_ms);
      generate_ms.push_back(p->generate_ms);
      shape_ms.push_back(p->shape_ms);
      intensity_ms.push_back(p->intensity_ms);
      bootstrap_ms.push_back(p->bootstrap_ms);
      invariants_ms.push_back(p->invariants_ms);
      unattributed_ms.push_back(
          p->run_ms - (p->topo_ms + p->generate_ms + p->shape_ms +
                       p->intensity_ms + p->bootstrap_ms + p->replay_ms +
                       p->invariants_ms));

      core::Network& net = *p->net;
      events = static_cast<double>(net.simulator().processed_events());
      trace_mb = static_cast<double>(p->trace.flows.capacity() *
                                     sizeof(workload::Flow)) /
                 (1024.0 * 1024.0);
      gfib_bytes = static_cast<double>(net.total_gfib_bytes());
      groups = static_cast<double>(net.grouping().group_count);
      rules = 0.0;
      for (std::size_t s = 0; s < net.topology().switch_count(); ++s) {
        rules += static_cast<double>(
            net.edge_switch(SwitchId{static_cast<std::uint32_t>(s)})
                .flow_table()
                .size());
      }
      wheel_events = static_cast<double>(p->wheel_events_applied);
      failover_detections = static_cast<double>(net.failover_event_count());

      if (args.trace) {
        const MicroTimings mt = time_micro(*p, spec);
        decide_ns.push_back(mt.decide_ns);
        query_ns.push_back(mt.query_ns);
        partition_ms.push_back(mt.partition_ms);
        candidates_per_query = mt.candidates_per_query;
      }
    }

    if (args.trace) {
      obs::recorder().enable();
      obs::recorder().clear();
      std::unique_ptr<Pipeline> p = run_pipeline(spec);
      obs::recorder().disable();
      gate_pipeline(gate, "traced step-by-step pipeline", ref, *p);
      traced_run_ms.push_back(p->run_ms);
      gfib_rebuild_ms.push_back(
          static_cast<double>(
              obs::recorder()
                  .phase_total(obs::TraceEventType::kGfibRebuild)
                  .wall_ns) /
          1e6);
    }

    if (!ref.snapshot.empty()) {
      const ResumePass r = run_resume(ref, args.trace, gate);
      if (r.restored) {
        restore_ms.push_back(r.restore_ms);
        finish_ms.push_back(r.finish_ms);
        resume_ms.push_back(r.restore_ms + r.finish_ms);
        if (args.trace) save_ms.push_back(r.save_ms);
      }
    }
    std::fprintf(stderr,
                 "perfbench: pass %zu: setup %.1f ms, run %.1f ms, replay "
                 "%.1f ms, resume %.1f ms\n",
                 run_ms.size(), setup_ms.back(), run_ms.back(),
                 replay_ms.back(), resume_ms.empty() ? 0.0 : resume_ms.back());
  } while (elapsed_s() < args.seconds && gate.failed == 0);

  // --- emit ---------------------------------------------------------------
  std::vector<std::pair<std::string, double>> metrics;
  const auto put = [&](const char* name, double v) {
    metrics.emplace_back(name, v);
  };
  const core::RunMetrics empty_metrics(spec.workload.horizon);
  const core::RunMetrics& m = ref.metrics ? *ref.metrics : empty_metrics;
  const double flows_seen = static_cast<double>(m.flows_seen);
  if (!args.trace) {
    put("setup_s", median(setup_ms) / 1e3);
    put("run_s", median(run_ms) / 1e3);
    put("replay_flows_per_s", median(flows_per_s));
    put("resume_s", median(resume_ms) / 1e3);
    put("peak_rss_mb", peak_rss_mb());
    put("sim_ctrl_requests_per_kflow",
        1e3 * frac(m.controller_packet_ins, m.flows_seen));
    put("sim_flow_setup_mean_us", m.first_packet_latency_ms.mean() * 1e3);
    put("flow_success_frac",
        ref.trace_flows == 0
            ? 0.0
            : (flows_seen - static_cast<double>(m.flows_dropped)) /
                  static_cast<double>(ref.trace_flows));
  } else {
    const double replay = median(replay_ms);
    const double run = median(run_ms);
    put("topo.build_ms", median(topo_ms));
    put("workload.generate_ms", median(generate_ms));
    put("workload.shape_ms", median(shape_ms));
    put("workload.flows", static_cast<double>(ref.trace_flows));
    put("workload.intensity_ms", median(intensity_ms));
    put("grouping.partition_ms", median(partition_ms));
    put("core.bootstrap_ms", median(bootstrap_ms));
    put("grouping.groups", groups);
    put("bloom.gfib_bytes", gfib_bytes);
    put("core.replay_ms", replay);
    put("core.replay_ns_per_flow",
        flows_seen == 0 ? 0.0 : replay * 1e6 / flows_seen);
    put("sim.events", events);
    put("sim.ns_per_event", events == 0 ? 0.0 : replay * 1e6 / events);
    put("core.local_frac", frac(m.flows_local_delivery, m.flows_seen));
    put("core.intra_group_frac", frac(m.flows_intra_group, m.flows_seen));
    put("core.inter_group_frac", frac(m.flows_inter_group, m.flows_seen));
    put("core.table_hit_frac", frac(m.flows_flow_table_hit, m.flows_seen));
    put("core.decide_ns", median(decide_ns));
    put("bloom.query_ns", median(query_ns));
    put("bloom.candidates_per_query", candidates_per_query);
    put("bloom.fp_copies", static_cast<double>(m.bf_false_positive_copies));
    put("ctrl.packet_ins", static_cast<double>(m.controller_packet_ins));
    put("ctrl.queue_delay_max_ms", m.controller_queue_delay_ms.max());
    put("ctrl.admission_drops", static_cast<double>(m.ctrl_admission_drops));
    put("ctrl.punt_retries", static_cast<double>(m.punt_retries));
    put("ctrl.punt_timeouts", static_cast<double>(m.punt_timeouts));
    put("ctrl.msgs_lost", static_cast<double>(m.ctrl_msgs_lost));
    put("ctrl.msgs_duped", static_cast<double>(m.ctrl_msgs_duped));
    put("ctrl.flows_degraded", static_cast<double>(m.flows_degraded));
    put("ctrl.flows_dropped", static_cast<double>(m.flows_dropped));
    put("openflow.rules", rules);
    put("core.gfib_rebuild_ms", median(gfib_rebuild_ms));
    put("grouping.updates", static_cast<double>(m.grouping_update_count));
    put("dgm.rounds", static_cast<double>(m.dgm_rounds));
    put("dgm.plans_applied", static_cast<double>(m.dgm_plans_applied));
    put("dgm.flow_mods", static_cast<double>(m.dgm_flow_mods));
    put("dgm.switch_moves", static_cast<double>(m.dgm_switch_moves));
    put("dgm.group_splits", static_cast<double>(m.dgm_group_splits));
    put("failover.events", wheel_events);
    put("failover.detections", failover_detections);
    put("core.invariants_ms", median(invariants_ms));
    put("ckpt.save_ms", median(save_ms));
    put("ckpt.restore_ms", median(restore_ms));
    put("ckpt.finish_ms", median(finish_ms));
    put("ckpt.snapshot_bytes", static_cast<double>(ref.snapshot.size()));
    put("mem.trace_mb", trace_mb);
    put("bench.unattributed_ms", median(unattributed_ms));
    put("bench.trace_overhead_frac",
        run == 0.0 ? 0.0 : median(traced_run_ms) / run - 1.0);
  }

  std::printf("{\"ok\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"errors\": [",
              gate.failed == 0 ? "true" : "false", gate.attempted,
              gate.failed);
  for (std::size_t i = 0; i < gate.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(gate.errors[i]).c_str());
  }
  std::printf("], \"build\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
              "\"build_type\": \"%s\"}, \"metrics\": {",
              json_escape(PERFBENCH_COMPILER).c_str(),
              json_escape(PERFBENCH_CXX_FLAGS).c_str(),
              json_escape(PERFBENCH_BUILD_TYPE).c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}}\n");
  return gate.failed == 0 ? 0 : 1;
}
