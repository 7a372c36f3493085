// TraceRecorder — fixed-capacity ring of structured sim-time-stamped
// events with a Chrome trace_event JSON exporter.
//
// The recorder is compiled in unconditionally but OFF by default: every
// emission site goes through trace_instant()/ScopedTimer, whose entire
// disabled cost is one relaxed load + predicted-not-taken branch on the
// cached enable flag. Enabling preallocates the ring; recording in the
// steady state never allocates and never touches simulation state, so a
// run is bit-identical with tracing on or off (tested in
// tests/obs_test.cpp, TracingOnOffBitIdentity).
//
// Two timelines land in the exported JSON (loadable in ui.perfetto.dev or
// chrome://tracing):
//   pid 1 "sim-time"   — instant events at their simulation timestamp,
//                        one track (tid) per category.
//   pid 2 "wall-clock" — ScopedTimer spans (replay spans, G-FIB rebuilds,
//                        bootstrap) at monotonic wall time since enable().
// The event catalog and a Perfetto walkthrough live in
// docs/OBSERVABILITY.md.
//
// Threading: record only from the thread that drives the simulation
// (every stock site does). The enable flag is an atomic so a stray
// cross-thread read is benign.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace lazyctrl::obs {

enum class TraceEventType : std::uint8_t {
  // Sim-time instants.
  kFlowPunt = 0,            ///< flow escalated to the controller
  kControllerOutageBegin,   ///< controller went dark
  kControllerOutageDrain,   ///< first admit after outage; queue drains
  kDgmRound,                ///< DGM maintenance round evaluated
  kDgmPlanApply,            ///< DGM round committed a regrouping plan
  kScenarioEvent,           ///< scenario script event fired
  // Wall-clock spans (ScopedTimer).
  kGfibRebuild,             ///< one switch group's G-FIB rebuild
  kReplaySpan,              ///< one replay flow batch
  kBootstrap,               ///< topology + host learning before replay
  kNumTypes                 // sentinel; keep last
};

[[nodiscard]] const char* trace_event_name(TraceEventType t) noexcept;
[[nodiscard]] const char* trace_event_category(TraceEventType t) noexcept;

struct TraceEvent {
  SimTime sim_ts = 0;            ///< simulation time, ns
  std::int64_t wall_ns = 0;      ///< monotonic wall since enable(), ns
  std::int64_t wall_dur_ns = -1; ///< span duration; -1 => sim instant
  std::uint64_t arg_a = 0;
  std::uint64_t arg_b = 0;
  TraceEventType type = TraceEventType::kFlowPunt;
};

namespace detail {
/// Cached enable flag — the ONLY thing the disabled hot path reads.
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Preallocates a ring of `capacity` events and turns recording on.
  /// All allocation happens here; recording afterwards is allocation-free
  /// (the ring overwrites its oldest entry when full, counting drops).
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  /// Empties the ring and phase totals but keeps recording on.
  void clear();
  [[nodiscard]] bool enabled() const noexcept { return tracing_enabled(); }

  /// Records a sim-time instant. Call only when enabled (the guarded
  /// free functions below check for you).
  void instant(TraceEventType t, SimTime sim_ts, std::uint64_t a = 0,
               std::uint64_t b = 0);
  /// Records a wall-clock span that began at `wall_begin_ns` (a value
  /// previously returned by wall_now_ns()).
  void span(TraceEventType t, SimTime sim_ts, std::int64_t wall_begin_ns,
            std::uint64_t a = 0, std::uint64_t b = 0);
  /// Monotonic nanoseconds since enable().
  [[nodiscard]] std::int64_t wall_now_ns() const;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// i-th recorded event, oldest first (0 <= i < size()).
  [[nodiscard]] const TraceEvent& event(std::size_t i) const;

  /// Wall-clock phase profile: total calls/duration per span type, kept
  /// even after the ring wraps (drops lose events, not totals).
  struct PhaseTotal {
    std::uint64_t calls = 0;
    std::int64_t wall_ns = 0;
  };
  [[nodiscard]] PhaseTotal phase_total(TraceEventType t) const;

  /// Chrome trace_event JSON (the {"traceEvents": [...]} flavor), events
  /// sorted by timestamp so every (pid, tid) track is monotone.
  /// `extra_events` is spliced in verbatim before the closing bracket —
  /// pre-rendered ",\n"-terminated event lines from another recorder
  /// (e.g. FlowLatencyRecorder::export_chrome_flow_spans) that should
  /// share the file.
  [[nodiscard]] std::string export_chrome_json(
      const std::string& extra_events = {}) const;
  /// Writes export_chrome_json(extra_events) to `path`; false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path,
                         const std::string& extra_events = {}) const;

 private:
  void push(const TraceEvent& ev);

  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t start_ = 0;  // index of oldest event
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t epoch_ns_ = 0;  // steady_clock at enable()
  PhaseTotal phases_[static_cast<std::size_t>(TraceEventType::kNumTypes)] = {};
};

/// The process-wide recorder every stock emission site writes to.
[[nodiscard]] TraceRecorder& recorder();

/// Guarded instant emission — the hot-path hook. Disabled cost: one
/// relaxed load + one branch; no call, no allocation, no state change.
inline void trace_instant(TraceEventType t, SimTime sim_ts,
                          std::uint64_t a = 0, std::uint64_t b = 0) {
  if (!tracing_enabled()) return;
  recorder().instant(t, sim_ts, a, b);
}

/// RAII wall-clock span. Inert (one branch) when tracing is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(TraceEventType t, SimTime sim_ts, std::uint64_t a = 0,
                       std::uint64_t b = 0)
      : active_(tracing_enabled()), type_(t), sim_ts_(sim_ts), a_(a), b_(b) {
    if (active_) begin_ = recorder().wall_now_ns();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (active_) recorder().span(type_, sim_ts_, begin_, a_, b_);
  }
  /// Updates the args recorded at scope exit (for values only known at
  /// the end of the span, e.g. flows processed in a replay batch).
  void args(std::uint64_t a, std::uint64_t b) noexcept {
    a_ = a;
    b_ = b;
  }

 private:
  bool active_;
  TraceEventType type_;
  SimTime sim_ts_;
  std::uint64_t a_;
  std::uint64_t b_;
  std::int64_t begin_ = 0;
};

}  // namespace lazyctrl::obs
