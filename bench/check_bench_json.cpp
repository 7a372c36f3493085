// CI gate for the benchmark JSON pipeline.
//
//   check_bench_json <dir> [expected_name...]
//
// Validates every BENCH_*.json under <dir> against the harness schema and,
// when expected names are listed, fails if any BENCH_<name>.json is
// missing. Exit codes: 0 ok, 1 validation failure, 2 missing file / bad
// usage.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace fs = std::filesystem;

namespace {

/// Per-bench required metric keys, beyond the generic schema: these are
/// the acceptance-bearing series CI tracks across PRs, so a rename or a
/// silently dropped metric fails the gate instead of going unnoticed.
const std::map<std::string, std::vector<std::string>>& required_metrics() {
  static const std::map<std::string, std::vector<std::string>> kRequired = {
      {"micro_datapath",
       {"throughput_flows_per_sec", "gfib_scan_ns", "gfib_scan_sliced_ns",
        "gfib_scan_speedup"}},
      {"ctrl_faults",
       {"delivered_fraction_loss_0", "delivered_fraction_loss_1pct",
        "delivered_fraction_loss_10pct", "degraded_fraction_loss_10pct",
        "dropped_fraction_loss_10pct", "latency_e2e_p99_ns_loss_10pct",
        "flows_degraded", "admission_drops"}},
      {"obs_overhead",
       {"replay_flows_per_sec_tracing_off", "replay_flows_per_sec_tracing_on",
        "tracing_on_overhead_pct", "tracing_off_overhead_pct",
        "replay_flows_per_sec_sampling_on", "sampling_on_overhead_pct",
        "rss_delta_bytes", "trace_events_recorded"}},
  };
  return kRequired;
}

/// Scenario-engine outputs (lazyctrl_run emits BENCH_scenario_<name>.json
/// through the same schema-v1 path): every scenario run must carry the
/// core accounting series plus the rerun-determinism verdict.
const std::vector<std::string>& scenario_required_metrics() {
  static const std::vector<std::string> kRequired = {
      "flows_total", "controller_packet_ins", "events_applied",
      "deterministic_rerun_identical", "latency_e2e_p99_ns"};
  return kRequired;
}

/// Extracts the median value of metric `key`, matching the harness
/// emitter's exact shape `"key": {"value": <number>`. Returns false when
/// the metric is absent or malformed.
bool metric_value(const std::string& json_text, const std::string& key,
                  double* out) {
  const std::string needle = "\"" + key + "\": {\"value\": ";
  const std::size_t at = json_text.find(needle);
  if (at == std::string::npos) return false;
  return std::sscanf(json_text.c_str() + at + needle.size(), "%lf", out) == 1;
}

/// True when the document carries a metric named `key`. Matches the
/// harness emitter's exact metric-entry shape via metric_value (one
/// needle definition for both the presence gate and the advisory), so a
/// key quoted in free-text fields (title, paper_reference) or embedded in
/// another metric's name cannot satisfy the gate.
bool has_metric(const std::string& json_text, const std::string& key) {
  double ignored;
  return metric_value(json_text, key, &ignored);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <dir> [expected_name...]\n", argv[0]);
    return 2;
  }
  const fs::path dir = argv[1];
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "check_bench_json: %s is not a directory\n",
                 argv[1]);
    return 2;
  }

  std::set<std::string> found;
  int bad = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!lazyctrl::benchx::validate_bench_json(buf.str(), &error)) {
      std::fprintf(stderr, "INVALID %s: %s\n", file.c_str(), error.c_str());
      ++bad;
    } else {
      const std::string name =
          file.substr(6, file.size() - 6 - 5);  // strip BENCH_ and .json
      bool complete = true;
      const std::vector<std::string>* required = nullptr;
      if (const auto it = required_metrics().find(name);
          it != required_metrics().end()) {
        required = &it->second;
      } else if (name.rfind("scenario_", 0) == 0) {
        required = &scenario_required_metrics();
      }
      if (required != nullptr) {
        for (const std::string& key : *required) {
          if (!has_metric(buf.str(), key)) {
            std::fprintf(stderr, "INVALID %s: required metric \"%s\" missing\n",
                         file.c_str(), key.c_str());
            complete = false;
          }
        }
      }
      // A scenario that failed its rerun-determinism check is a bug even
      // when the document itself is schema-valid.
      if (complete && name.rfind("scenario_", 0) == 0) {
        double deterministic = 1.0;
        if (metric_value(buf.str(), "deterministic_rerun_identical",
                         &deterministic) &&
            deterministic != 1.0) {
          std::fprintf(stderr,
                       "INVALID %s: deterministic_rerun_identical = %g "
                       "(scenario reruns diverged)\n",
                       file.c_str(), deterministic);
          complete = false;
        }
      }
      if (!complete) {
        ++bad;
        continue;
      }
      // Non-fatal perf advisory: the bit-sliced G-FIB scan should beat
      // the linear layout comfortably (the PR's acceptance floor is 2x at
      // full scale; 1.5x here leaves headroom for noisy smoke runners).
      // A warning, not a failure — smoke-scale timings are too jittery
      // for a hard gate, but a silent regression should still be visible
      // in the CI log.
      if (name == "micro_datapath") {
        double speedup = 0;
        if (metric_value(buf.str(), "gfib_scan_speedup", &speedup) &&
            speedup < 1.5) {
          std::printf("WARNING %s: gfib_scan_speedup %.2fx < 1.5x "
                      "(non-fatal; sliced G-FIB scan regressed?)\n",
                      file.c_str(), speedup);
        }
      }
      // Surface the optional stats section (obs::Registry snapshot) so a
      // silently dropped --stats-dump shows up as "0 stats" in the CI log.
      std::size_t stat_count = 0;
      lazyctrl::benchx::JsonValue doc;
      if (lazyctrl::benchx::parse_json(buf.str(), &doc, nullptr)) {
        if (const auto* stats = doc.find("stats")) {
          stat_count = stats->object.size();
        }
      }
      if (stat_count > 0) {
        std::printf("ok      %s (%zu stats)\n", file.c_str(), stat_count);
      } else {
        std::printf("ok      %s\n", file.c_str());
      }
      found.insert(name);
    }
  }

  int missing = 0;
  for (int i = 2; i < argc; ++i) {
    if (!found.contains(argv[i])) {
      std::fprintf(stderr, "MISSING BENCH_%s.json\n", argv[i]);
      ++missing;
    }
  }

  std::printf("%zu valid, %d invalid, %d missing\n", found.size(), bad,
              missing);
  if (bad > 0) return 1;
  if (missing > 0) return 2;
  return 0;
}
