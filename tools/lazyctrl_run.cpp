// lazyctrl_run — execute a declarative scenario (.scn) end to end and
// emit BENCH_scenario_<name>.json through the shared bench harness.
//
//   lazyctrl_run <scenario.scn> [options]
//
//   --set SECTION.KEY=VALUE  override any spec value through the same key
//                            grammar as the file (repeatable), e.g.
//                            --set config.fib.layout=linear
//                            --set workload.flows=500
//   --scale F                multiply workload.flows by F (smoke runs)
//   --reps N                 harness repetitions (default 2); with N >= 2
//                            every repetition's RunMetrics must be
//                            bit-identical to the first, so the default
//                            run doubles as a determinism check
//   --json-dir DIR           where BENCH_*.json lands (overrides env
//                            LAZYCTRL_BENCH_JSON_DIR)
//   --print-spec             print the canonical serialized spec and exit
//   --trace FILE             record sim-time/wall-clock trace events during
//                            the final repetition and write them to FILE in
//                            Chrome trace_event JSON (load in Perfetto or
//                            chrome://tracing; see docs/OBSERVABILITY.md)
//   --flow-sample N          flight-record every N-th flow (deterministic,
//                            keyed on the flow id — bit-identical metrics
//                            with any N, including 0 = off). Sampled flows
//                            land in --trace output as per-stage spans.
//                            Stage latency histograms + the
//                            latency_*_p*_ns JSON metrics are always on,
//                            independent of N.
//   --stats-dump             after the final repetition, enumerate the
//                            network's obs::Registry (counters + gauges) to
//                            stdout and into the JSON "stats" section
//   --log-level LEVEL        set log verbosity (debug|info|warn|error or
//                            0-3; overrides LAZYCTRL_LOG)
//   --checkpoint-every DUR   take a full-state snapshot every DUR of sim
//                            time during the first repetition (plus any
//                            checkpoint_at events in the spec) and write
//                            each one to --checkpoint-dir as
//                            <name>-<index>.ckpt. Snapshots are
//                            metrics-neutral: later repetitions run
//                            without them and must stay bit-identical.
//   --checkpoint-dir DIR     where .ckpt files land (default ".")
//   --resume FILE            instead of a .scn: restore FILE, finish the
//                            replay, then run the same scenario
//                            uninterrupted in-process and require the two
//                            final RunMetrics to be bit-identical
//                            (exit 1 + diff report otherwise)
//
// Exit codes: 0 ok; 1 scenario ran but a repetition's metrics diverged
// (non-determinism — a bug) or a resumed run diverged from the
// uninterrupted one; 2 parse/semantic/usage failure.
//
// The spec grammar and every event primitive are documented in
// docs/SCENARIOS.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <filesystem>

#include "ckpt/checkpoint.h"
#include "common/log.h"
#include "core/metrics.h"
#include "core/network.h"
#include "harness.h"
#include "obs/flow_latency.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

using namespace lazyctrl;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.scn> [--set section.key=value]... "
               "[--scale F] [--reps N] [--json-dir DIR] [--print-spec]\n"
               "          [--trace FILE] [--flow-sample N] [--stats-dump] "
               "[--log-level LEVEL]\n"
               "          [--checkpoint-every DUR] [--checkpoint-dir DIR]\n"
               "       %s --resume FILE.ckpt\n",
               argv0, argv0);
  return 2;
}

void report_run(const scenario::ScenarioRunner& runner,
                benchx::BenchReport& report) {
  const core::RunMetrics& m = runner.metrics();
  const auto& counts = runner.event_counts();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  report.metric("flows_total", d(m.flows_seen), "flows");
  report.metric("flows_local_delivery", d(m.flows_local_delivery), "flows");
  report.metric("flows_intra_group", d(m.flows_intra_group), "flows");
  report.metric("flows_inter_group", d(m.flows_inter_group), "flows");
  report.metric("flow_table_hits", d(m.flows_flow_table_hit), "flows");
  report.controller_load("controller_packet_ins", d(m.controller_packet_ins));
  report.metric("inter_group_fraction",
                m.flows_seen ? d(m.flows_inter_group) / d(m.flows_seen) : 0.0,
                "fraction");
  report.latency_ms("first_packet_latency_ms_mean",
                    m.first_packet_latency_ms.mean());
  report.latency_ms("controller_queue_delay_ms_mean",
                    m.controller_queue_delay_ms.mean());
  report.latency_ms("controller_queue_delay_ms_max",
                    m.controller_queue_delay_ms.max());
  report.metric("grouping_updates", d(m.grouping_update_count), "updates");
  report.metric("dgm_plans_applied", d(m.dgm_plans_applied), "plans");
  report.metric("preload_rules_installed", d(m.preload_rules_installed),
                "rules");
  report.metric("bf_false_positive_copies", d(m.bf_false_positive_copies),
                "packets");
  report.metric("failover_detections",
                d(runner.network().failover_event_count()), "events");
  report.metric("flows_degraded", d(m.flows_degraded), "flows");
  report.metric("flows_dropped", d(m.flows_dropped), "flows");
  report.metric("punt_retries", d(m.punt_retries), "attempts");
  report.metric("punt_timeouts", d(m.punt_timeouts), "flows");
  report.metric("admission_drops", d(m.ctrl_admission_drops), "requests");
  report.metric("events_scheduled", d(counts.scheduled), "events");
  report.metric("events_applied", d(counts.applied), "events");
  report.metric("events_skipped", d(counts.skipped), "events");

  std::printf(
      "  flows %llu | local %llu | intra-group %llu | inter-group %llu | "
      "table hits %llu\n",
      static_cast<unsigned long long>(m.flows_seen),
      static_cast<unsigned long long>(m.flows_local_delivery),
      static_cast<unsigned long long>(m.flows_intra_group),
      static_cast<unsigned long long>(m.flows_inter_group),
      static_cast<unsigned long long>(m.flows_flow_table_hit));
  std::printf(
      "  controller PacketIns %llu | mean setup %.3f ms | max ctrl queue "
      "%.3f ms\n",
      static_cast<unsigned long long>(m.controller_packet_ins),
      m.first_packet_latency_ms.mean(), m.controller_queue_delay_ms.max());
  std::printf(
      "  events: %zu scheduled, %zu applied, %zu skipped | grouping "
      "updates %llu | failover detections %zu\n",
      counts.scheduled, counts.applied, counts.skipped,
      static_cast<unsigned long long>(m.grouping_update_count),
      runner.network().failover_event_count());
}

constexpr std::pair<const char*, double> kReportedQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};

// Stage-latency percentiles from the flow-attribution histograms
// (obs/flow_latency.h): whole-run quantiles as first-class metrics
// ("latency_e2e_p99_ns", required for scenario benches by
// check_bench_json), per-phase quantiles as stats entries keyed
// "latency.phase<i>.<event label>.<stage>_p<N>_ns".
void report_latency(benchx::BenchReport& report) {
  const obs::FlowLatencyRecorder& rec = obs::flow_recorder();
  for (std::size_t i = 0; i < obs::kNumFlowStages; ++i) {
    const auto stage = static_cast<obs::FlowStage>(i);
    const auto& h = rec.stage_histogram(stage);
    for (const auto& [name, p] : kReportedQuantiles) {
      report.metric(
          std::string("latency_") + obs::flow_stage_name(stage) + "_" +
              name + "_ns",
          h.quantile(p), "ns");
    }
  }
  for (std::size_t pi = 0; pi < rec.phases().size(); ++pi) {
    const auto& phase = rec.phases()[pi];
    for (std::size_t i = 0; i < obs::kNumFlowStages; ++i) {
      const auto stage = static_cast<obs::FlowStage>(i);
      const auto& h = phase.stages[i];
      if (h.count() == 0) continue;
      for (const auto& [name, p] : {std::pair{"p50", 0.50}, {"p99", 0.99}}) {
        report.stat("latency.phase" + std::to_string(pi) + "." + phase.label +
                        "." + obs::flow_stage_name(stage) + "_" + name +
                        "_ns",
                    h.quantile(p));
      }
    }
  }
  const auto& e2e = rec.stage_histogram(obs::FlowStage::kE2e);
  std::printf(
      "  latency e2e p50 %.0f ns | p99 %.0f ns | ctrl_queue p99 %.0f ns | "
      "%llu samples, %zu flight-recorded\n",
      e2e.quantile(0.50), e2e.quantile(0.99),
      rec.stage_histogram(obs::FlowStage::kCtrlQueue).quantile(0.99),
      static_cast<unsigned long long>(e2e.count()), rec.size());
}

// --resume FILE: restore the snapshot, drive the replay to the horizon,
// then run the embedded scenario uninterrupted in the same process and
// require both final RunMetrics to be bit-identical. This is the CI gate
// for the checkpoint subsystem (ckpt-smoke), not a bench run — no
// harness JSON is emitted.
int resume_main(const std::string& snapshot_path) {
  std::vector<std::uint8_t> bytes;
  std::string err;
  if (!ckpt::read_snapshot_file(snapshot_path, &bytes, &err)) {
    std::fprintf(stderr, "--resume: %s\n", err.c_str());
    return 2;
  }
  auto resumed = scenario::ScenarioRunner::restore(bytes, &err);
  if (resumed == nullptr) {
    std::fprintf(stderr, "--resume %s: invalid snapshot: %s\n",
                 snapshot_path.c_str(), err.c_str());
    return 2;
  }
  std::printf("resuming '%s' from %s\n", resumed->spec().name.c_str(),
              snapshot_path.c_str());
  if (!resumed->finish(&err)) {
    std::fprintf(stderr, "resumed replay failed: %s\n", err.c_str());
    return 2;
  }

  auto full = std::make_unique<scenario::ScenarioRunner>(resumed->spec());
  if (!full->run(&err)) {
    std::fprintf(stderr, "uninterrupted comparison run failed: %s\n",
                 err.c_str());
    return 2;
  }
  if (!resumed->metrics().identical_to(full->metrics())) {
    std::fprintf(stderr,
                 "RESUME DIVERGED: the resumed run's final RunMetrics "
                 "differ from the uninterrupted run's\n  %s\n",
                 resumed->metrics().diff_report(full->metrics()).c_str());
    return 1;
  }
  const core::RunMetrics& m = resumed->metrics();
  std::printf(
      "  resumed run bit-identical to uninterrupted: %llu flows, %llu "
      "controller PacketIns, mean setup %.3f ms\n",
      static_cast<unsigned long long>(m.flows_seen),
      static_cast<unsigned long long>(m.controller_packet_ins),
      m.first_packet_latency_ms.mean());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  std::string path;
  std::vector<std::string> overrides;
  double scale = 1.0;
  int reps = 2;
  bool print_spec = false;
  std::string trace_path;
  bool stats_dump = false;
  int flow_sample = 0;
  SimDuration checkpoint_every = 0;
  std::string checkpoint_dir = ".";
  std::string resume_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--set") {
      const char* v = next("--set");
      if (v == nullptr) return 2;
      overrides.emplace_back(v);
    } else if (arg == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return 2;
      scale = std::atof(v);
      if (scale <= 0) {
        std::fprintf(stderr, "--scale expects a positive number\n");
        return 2;
      }
    } else if (arg == "--reps") {
      const char* v = next("--reps");
      if (v == nullptr) return 2;
      reps = std::atoi(v);
      if (reps < 1) {
        std::fprintf(stderr, "--reps expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--json-dir") {
      const char* v = next("--json-dir");
      if (v == nullptr) return 2;
      setenv("LAZYCTRL_BENCH_JSON_DIR", v, 1);
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return 2;
      trace_path = v;
    } else if (arg == "--flow-sample") {
      const char* v = next("--flow-sample");
      if (v == nullptr) return 2;
      flow_sample = std::atoi(v);
      if (flow_sample < 0) {
        std::fprintf(stderr, "--flow-sample expects a non-negative integer\n");
        return 2;
      }
    } else if (arg == "--checkpoint-every") {
      const char* v = next("--checkpoint-every");
      if (v == nullptr) return 2;
      if (!scenario::parse_duration(v, &checkpoint_every) ||
          checkpoint_every <= 0) {
        std::fprintf(stderr,
                     "--checkpoint-every expects a positive duration "
                     "(e.g. 10m), got %s\n",
                     v);
        return 2;
      }
    } else if (arg == "--checkpoint-dir") {
      const char* v = next("--checkpoint-dir");
      if (v == nullptr) return 2;
      checkpoint_dir = v;
    } else if (arg == "--resume") {
      const char* v = next("--resume");
      if (v == nullptr) return 2;
      resume_path = v;
    } else if (arg == "--stats-dump") {
      stats_dump = true;
    } else if (arg == "--log-level") {
      const char* v = next("--log-level");
      if (v == nullptr) return 2;
      LogLevel level;
      if (!parse_log_level(v, &level)) {
        std::fprintf(stderr,
                     "--log-level expects debug|info|warn|error or 0-3, "
                     "got %s\n",
                     v);
        return 2;
      }
      set_log_level(level);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "only one scenario file may be given\n");
      return usage(argv[0]);
    }
  }
  if (!resume_path.empty()) {
    if (!path.empty()) {
      std::fprintf(stderr,
                   "--resume carries its own scenario; drop the .scn "
                   "argument\n");
      return 2;
    }
    return resume_main(resume_path);
  }
  if (path.empty()) return usage(argv[0]);

  scenario::ParseResult parsed = scenario::parse_scenario_file(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid scenario\n%s", path.c_str(),
                 parsed.error_text().c_str());
    return 2;
  }
  scenario::ScenarioSpec spec = std::move(parsed.spec);
  for (const std::string& o : overrides) {
    std::string err;
    if (!scenario::apply_override(spec, o, &err)) {
      std::fprintf(stderr, "--set %s: %s\n", o.c_str(), err.c_str());
      return 2;
    }
  }
  if (scale != 1.0) {
    spec.workload.flows = static_cast<std::size_t>(
        static_cast<double>(spec.workload.flows) * scale);
  }

  if (print_spec) {
    std::fputs(scenario::serialize_scenario(spec).c_str(), stdout);
    return 0;
  }

  // Mirror the harness's repetition AND warmup overrides so the
  // determinism verdict below can be recorded exactly once, on the very
  // last body invocation — a per-rep 0/1 sample would be
  // median-aggregated and could mask a minority diverging rep at
  // --reps >= 3, and warmup invocations advance the same counter.
  const auto env_count = [](const char* name, int fallback) {
    if (const char* s = std::getenv(name)) {
      const int v = std::atoi(s);
      if (v >= 0) return v;
    }
    return fallback;
  };
  const int total_reps = std::max(1, env_count("LAZYCTRL_BENCH_REPS", reps));
  const int total_invocations =
      total_reps + env_count("LAZYCTRL_BENCH_WARMUP", 0);

  // Only the first run's RunMetrics survive as the determinism
  // reference — keeping the whole runner (network, topology, trace)
  // alive would double peak memory during every later repetition.
  std::optional<core::RunMetrics> reference;
  int rep_index = 0;
  bool all_identical = true;
  if (!trace_path.empty()) obs::recorder().enable();
  // Stage histograms are always on (the latency_*_ns metrics are part of
  // the scenario JSON schema); --flow-sample only adds ring records.
  obs::flow_recorder().enable(static_cast<std::uint32_t>(flow_sample));
  const int status = benchx::run_benchmark(
      "scenario_" + benchx::slugify(spec.name),
      "Scenario — " + spec.name,
      spec.description.empty() ? path : spec.description,
      {.repetitions = reps, .warmup = 0},
      [&](benchx::BenchReport& report) {
        ++rep_index;
        // Each invocation records into a fresh ring so the written file
        // covers exactly the final repetition.
        if (!trace_path.empty()) obs::recorder().clear();
        obs::flow_recorder().clear();
        auto runner = std::make_unique<scenario::ScenarioRunner>(spec);
        // Snapshots are taken on the first repetition only; later reps
        // run without the extra fences and the bit-identity comparison
        // below doubles as the snapshot-neutrality check.
        if (checkpoint_every > 0 && rep_index == 1) {
          std::vector<SimTime> fences;
          for (SimTime t = checkpoint_every; t < spec.workload.horizon;
               t += checkpoint_every) {
            fences.push_back(t);
          }
          runner->add_checkpoint_times(std::move(fences));
        }
        std::string error;
        if (!runner->run(&error)) {
          std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
          return 2;
        }
        if (rep_index == 1 && !runner->snapshots().empty()) {
          std::error_code ec;
          std::filesystem::create_directories(checkpoint_dir, ec);
          const std::string slug = benchx::slugify(spec.name);
          std::size_t snap_index = 0;
          for (const auto& snap : runner->snapshots()) {
            if (!snap.error.empty()) {
              std::fprintf(stderr, "checkpoint at t=%s failed: %s\n",
                           scenario::format_duration(snap.at).c_str(),
                           snap.error.c_str());
              return 2;
            }
            const std::string file = checkpoint_dir + "/" + slug + "-" +
                                     std::to_string(snap_index) + ".ckpt";
            if (!ckpt::write_snapshot_file(file, snap.bytes, &error)) {
              std::fprintf(stderr, "%s\n", error.c_str());
              return 2;
            }
            std::printf("  checkpoint %zu at t=%s -> %s (%zu bytes)\n",
                        snap_index,
                        scenario::format_duration(snap.at).c_str(),
                        file.c_str(), snap.bytes.size());
            ++snap_index;
          }
        }
        report_run(*runner, report);
        bool identical = true;
        if (!reference.has_value()) {
          reference = runner->metrics();
        } else {
          identical = runner->metrics().identical_to(*reference);
          if (!identical) {
            all_identical = false;
            // diff_report names the first diverging field (and, for a
            // time series, the bucket) — actionable, unlike a bare
            // exit 1.
            std::fprintf(stderr,
                         "NON-DETERMINISTIC: this repetition's RunMetrics "
                         "differ from the first run's\n  %s\n",
                         runner->metrics().diff_report(*reference).c_str());
          }
        }
        if (rep_index >= total_invocations) {
          report_latency(report);
          if (stats_dump) {
            obs::Registry registry;
            runner->network().register_stats(registry);
            std::printf("  stats registry (%zu entries):\n", registry.size());
            for (const obs::Registry::Sample& s : registry.snapshot()) {
              report.stat(s.name, s.value);
              std::printf("    %-40s %.6g\n", s.name.c_str(), s.value);
            }
          }
          if (!trace_path.empty()) {
            if (obs::write_chrome_trace(trace_path)) {
              std::printf("  trace: %zu events + %zu flow records -> %s\n",
                          obs::recorder().size(), obs::flow_recorder().size(),
                          trace_path.c_str());
              if (obs::recorder().dropped() > 0) {
                std::fprintf(stderr,
                             "warning: trace ring overflowed, %llu oldest "
                             "events dropped (obs.trace_dropped) — raise the "
                             "ring capacity or trace a shorter window\n",
                             static_cast<unsigned long long>(
                                 obs::recorder().dropped()));
              }
              if (obs::flow_recorder().dropped() > 0) {
                std::fprintf(stderr,
                             "warning: flight-recorder ring overflowed, "
                             "%llu oldest flow records dropped — raise "
                             "--flow-sample N to sample fewer flows\n",
                             static_cast<unsigned long long>(
                                 obs::flow_recorder().dropped()));
              }
            } else {
              std::fprintf(stderr, "cannot write trace to %s\n",
                           trace_path.c_str());
              return 2;
            }
          }
          if (rep_index >= 2) {
            report.metric("deterministic_rerun_identical",
                          all_identical ? 1.0 : 0.0, "bool");
          } else {
            // A single invocation never compared anything; omitting the
            // metric (rather than claiming 1) makes check_bench_json's
            // required-metric gate flag the unchecked run.
            std::fprintf(stderr,
                         "note: 1 repetition — rerun determinism was NOT "
                         "checked (deterministic_rerun_identical omitted)\n");
          }
        }
        return identical ? 0 : 1;
      });
  return status;
}
