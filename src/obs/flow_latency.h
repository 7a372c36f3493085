// FlowLatencyRecorder — per-flow latency attribution: stage histograms
// plus a flight-recorder ring of sampled flows.
//
// The simulator prices every flow's first-packet latency analytically,
// as a sum of model components. This recorder slices that sum at the
// stage boundaries of the flow's life (edge decide -> punt enqueue ->
// controller admit after the outage queue -> rule install -> delivery)
// and answers "where did the slow flows spend their time":
//
//   edge        host NIC -> ingress switch pipeline (decide start to
//               L-FIB/G-FIB resolution)
//   punt_rtt    PacketIn uplink + controller service (controller-path
//               flows only; 0 otherwise)
//   ctrl_queue  wait between arrival at the controller and service
//               start — this is where outage backlogs live
//   install     FlowMod/PacketOut downlink until the rule is active
//   e2e         the whole first-packet latency; e2e minus the stages
//               above is the delivery remainder (datapath + egress)
//
// Two sinks, one guarded hot path:
//   * stage histograms (obs::LogHistogram) — every flow, O(1), plus a
//     per-scenario-phase set fenced by begin_phase() (the scenario
//     runner calls it at every script event);
//   * the flight-recorder ring — full per-stage records for a
//     deterministic 1-in-N sample of flows, keyed on a mix of the flow
//     id (NOT the run RNG), so the same flows are sampled on every run,
//     and a run is bit-identical with sampling on or off (tested in
//     tests/obs_test.cpp).
//
// Discipline mirrors TraceRecorder (obs/trace.h): compiled in but OFF
// by default; the entire disabled cost at every emission site is one
// relaxed load + predicted branch; enable() does all allocation;
// recording never allocates and never touches simulation state.
// Record only from the thread that drives the simulation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/histogram.h"

namespace lazyctrl::obs {

enum class FlowStage : std::uint8_t {
  kEdge = 0,
  kRetryBackoff,  ///< punt retry backoff waits (lossy control channels)
  kPuntRtt,
  kCtrlQueue,
  kInstall,
  kE2e,
  kNumStages  // sentinel; keep last
};
constexpr std::size_t kNumFlowStages =
    static_cast<std::size_t>(FlowStage::kNumStages);

/// Short stage name ("edge", "punt_rtt", ...).
[[nodiscard]] const char* flow_stage_name(FlowStage s) noexcept;
/// Registry metric base name ("latency.edge_ns", ...).
[[nodiscard]] const char* flow_stage_metric(FlowStage s) noexcept;

/// How the flow was resolved — the waterfall label in lazyctrl_explain.
enum class FlowPathKind : std::uint8_t {
  kFlowTableHit = 0,
  kLocalDeliver,
  kIntraGroup,
  kOpenFlowMiss,
  kTransitionPunt,
  kExcludedHosts,
  kPureFalsePositive,
  kInterGroupPunt,
  kDegradedFlood,  ///< punt exhausted retries; §III-D flooding fallback
  kPuntDropped,    ///< punt exhausted retries; flow dropped (openflow)
  kNumKinds  // sentinel; keep last
};
[[nodiscard]] const char* flow_path_name(FlowPathKind k) noexcept;

struct FlowStageLatency {
  SimDuration edge = 0;
  SimDuration retry_backoff = 0;
  SimDuration punt_rtt = 0;
  SimDuration ctrl_queue = 0;
  SimDuration install = 0;
  SimDuration e2e = 0;

  [[nodiscard]] SimDuration stage(FlowStage s) const noexcept {
    switch (s) {
      case FlowStage::kEdge: return edge;
      case FlowStage::kRetryBackoff: return retry_backoff;
      case FlowStage::kPuntRtt: return punt_rtt;
      case FlowStage::kCtrlQueue: return ctrl_queue;
      case FlowStage::kInstall: return install;
      default: return e2e;
    }
  }
};

struct FlowRecord {
  std::uint64_t flow_id = 0;
  SimTime start = 0;
  std::uint32_t src_sw = 0;
  std::uint32_t dst_sw = 0;
  FlowPathKind path = FlowPathKind::kFlowTableHit;
  FlowStageLatency stages;
};

namespace detail {
/// Cached enable flag — the ONLY thing the disabled hot path reads.
inline std::atomic<bool> g_flow_attr_enabled{false};
}  // namespace detail

[[nodiscard]] inline bool flow_attribution_enabled() noexcept {
  return detail::g_flow_attr_enabled.load(std::memory_order_relaxed);
}

/// splitmix64 finalizer: decorrelates the sampling predicate from the
/// (sequential) flow-id assignment so 1-in-N picks a spread of flows,
/// not every N-th arrival.
[[nodiscard]] constexpr std::uint64_t mix_flow_id(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class FlowLatencyRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 15;
  /// Phase fences beyond this are folded into the last phase (a scenario
  /// with hundreds of script events should not grow without bound).
  static constexpr std::size_t kMaxPhases = 64;

  /// Turns attribution on. `sample_every_n` controls the flight-recorder
  /// ring: 0 = histograms only, 1 = record every flow, N = a
  /// deterministic 1-in-N flow-id-keyed sample. All allocation happens
  /// here; recording afterwards is allocation-free except at phase
  /// fences (begin_phase, script-event rare).
  void enable(std::uint32_t sample_every_n,
              std::size_t ring_capacity = kDefaultRingCapacity);
  void disable();
  /// Empties histograms, phases and the ring but keeps recording on.
  void clear();
  [[nodiscard]] bool enabled() const noexcept {
    return flow_attribution_enabled();
  }
  [[nodiscard]] std::uint32_t sample_every_n() const noexcept {
    return sample_n_;
  }
  [[nodiscard]] bool is_sampled(std::uint64_t flow_id) const noexcept {
    return sample_n_ != 0 && mix_flow_id(flow_id) % sample_n_ == 0;
  }

  /// Records one finished flow: all five stage histograms (total and
  /// current phase) always; the ring only when the flow id is sampled.
  /// Call only when enabled (check flow_attribution_enabled() first).
  void record(const FlowRecord& rec);

  /// Closes the current phase at `at` and opens a new one labelled
  /// `label`. The scenario runner calls this at every script event, so
  /// phases are the inter-event windows of the scenario.
  void begin_phase(const char* label, SimTime at);

  struct Phase {
    std::string label;
    SimTime from = 0;
    SimTime to = -1;  ///< -1 while the phase is still open
    std::array<LogHistogram, kNumFlowStages> stages;
  };

  [[nodiscard]] const LogHistogram& stage_histogram(FlowStage s) const {
    return totals_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const std::vector<Phase>& phases() const noexcept {
    return phases_;
  }

  // Flight-recorder ring, oldest first.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.size();
  }
  [[nodiscard]] const FlowRecord& record_at(std::size_t i) const;
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Pre-rendered Chrome trace_event lines (",\n"-terminated) placing
  /// every sampled flow's stages as X spans on pid 3, one track (tid)
  /// per stage, sorted per track so timestamps stay monotone. Spliced
  /// into TraceRecorder::export_chrome_json via its `extra` parameter.
  [[nodiscard]] std::string export_chrome_flow_spans() const;

 private:
  std::array<LogHistogram, kNumFlowStages> totals_;
  std::vector<Phase> phases_;
  std::vector<FlowRecord> ring_;
  std::size_t start_ = 0;  // index of oldest record
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t sample_n_ = 0;
};

/// The process-wide recorder every stock emission site writes to.
[[nodiscard]] FlowLatencyRecorder& flow_recorder();

/// Writes the TraceRecorder ring plus (when attribution is enabled and
/// sampled records exist) the flow-stage spans into one Chrome trace
/// JSON file; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace lazyctrl::obs
