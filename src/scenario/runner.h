// ScenarioRunner — executes a parsed ScenarioSpec end to end.
//
// The runner is the bridge between the declarative spec and the live
// subsystems: it builds the multi-tenant topology, generates and shapes
// the workload (traffic surges and tenant activity windows are applied
// to the trace BEFORE replay so the flow schedule itself is part of the
// deterministic input), constructs a core::Network, schedules the event
// script into the discrete-event simulator through the Network's
// scenario seams, and replays.
//
// Determinism contract: every scenario event commits its state as an
// ordinary simulator event, fenced by Simulator::next_event_time()
// exactly like the existing periodic machinery, so the same spec
// produces bit-identical RunMetrics on every run (regression-tested in
// tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/network.h"
#include "scenario/spec.h"
#include "topo/topology.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::scenario {

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

  /// Builds topology + trace + network, validates the event script
  /// against them (switch/tenant/host indices in range, events within
  /// the horizon, failover events only with failover enabled), schedules
  /// the script and replays. Returns false and sets `*error` on semantic
  /// problems. One call per runner.
  bool run(std::string* error);

  /// Builds the topology and validates the event script against it —
  /// everything run() checks before generating a workload — without
  /// replaying. Unlike run() it may be called repeatedly, and a later
  /// run() on the same runner still works (the topology is built once).
  bool validate_only(std::string* error);

  /// Evaluates core::check_invariants() (core/invariants.h) after every
  /// scheduled scenario event — at the simulator fence the event ran in —
  /// and again at end of run, where the trace-level conservation check
  /// (every generated flow was seen) is added. Must be called before
  /// run(). Violations accumulate in invariant_violations(); run() still
  /// returns true, the caller decides whether they fail the run. The
  /// checker is read-only, so a checked run stays bit-identical to an
  /// unchecked one.
  void enable_invariant_checks() noexcept { check_invariants_ = true; }
  [[nodiscard]] const std::vector<std::string>& invariant_violations()
      const noexcept {
    return invariant_violations_;
  }

  /// How the event script fared at sim time.
  struct EventCounts {
    std::size_t scheduled = 0;  ///< events scheduled into the simulator
    std::size_t applied = 0;    ///< found their target live and took effect
    std::size_t skipped = 0;    ///< fired but were no-ops (e.g. regroup
                                ///< found nothing to do, switch already up)
  };

  // --- checkpoint / resume (src/ckpt) ---

  /// One snapshot taken at a checkpoint fence. `bytes` is empty and
  /// `error` set when serialization failed (e.g. in-flight work at the
  /// fence); the run itself continues either way.
  struct Snapshot {
    SimTime at = 0;
    std::vector<std::uint8_t> bytes;
    std::string error;
  };

  /// Additional checkpoint fences beyond the spec's `checkpoint_at`
  /// events (the `--checkpoint-every` CLI hook): absolute sim times,
  /// scheduled as one-shot fence events. Must be called before run().
  void add_checkpoint_times(std::vector<SimTime> times);

  /// Snapshots taken during run()/finish(), in fence order.
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const noexcept {
    return snapshots_;
  }

  /// Stage 1 of a resume: rebuilds a runner from snapshot bytes — spec,
  /// topology, trace and the full network/simulator state at the
  /// checkpointed fence. Returns nullptr and sets `*error` on a corrupt,
  /// truncated or version-skewed snapshot. The restored runner replays
  /// nothing until finish().
  static std::unique_ptr<ScenarioRunner> restore(
      const std::vector<std::uint8_t>& bytes, std::string* error);

  /// Stage 2: drives the restored replay to the trace horizon. The
  /// resulting metrics() are bit-identical to the uninterrupted run's.
  bool finish(std::string* error);

  /// Re-serializes the current state of a restored (not yet finished)
  /// runner. restore(checkpoint(s)) followed by save_now() reproduces the
  /// snapshot byte for byte — the round-trip identity ckpt_test enforces.
  bool save_now(std::vector<std::uint8_t>* out, std::string* error);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  // The accessors below require a successful run().
  [[nodiscard]] const core::RunMetrics& metrics() const {
    return net_->metrics();
  }
  [[nodiscard]] const core::Network& network() const { return *net_; }
  /// Mutable view for post-run observability hooks (e.g. wiring the
  /// network's stats into an obs::Registry for --stats-dump).
  [[nodiscard]] core::Network& network() { return *net_; }
  [[nodiscard]] const workload::Trace& trace() const { return *trace_; }
  [[nodiscard]] const EventCounts& event_counts() const noexcept {
    return counts_;
  }

 private:
  /// The snapshot codec: reads/writes the runner's scheduling bookkeeping
  /// (script event ids, checkpoint fences, event counts) alongside the
  /// network state, and rebuilds a restored runner through the private
  /// construction path.
  friend class lazyctrl::ckpt::StateAccess;

  /// Range-checks the spec's VM bounds and builds the topology (once);
  /// shared head of run() and validate_only().
  bool prepare_topology(std::string* error);
  bool validate(std::string* error) const;
  void build_trace();
  void apply_event(const ScenarioEvent& ev);
  /// Runs the invariant checker now, prefixing violations with `where`.
  void run_invariant_check(const std::string& where);
  void schedule_migration_burst(const ScenarioEvent& ev,
                                std::uint64_t stream_id);
  /// Per-tenant activity windows [from, to) implied by the event script
  /// (arrival opens, departure closes; both default to the full run).
  [[nodiscard]] std::vector<workload::TenantActivityWindow>
  tenant_activity_windows() const;
  /// Serializes the current state into `snapshots_` (fence callback of
  /// both `checkpoint_at` script events and --checkpoint-every one-shots).
  void take_checkpoint();
  /// End-of-run invariant tail shared by run() and finish().
  void end_of_run_checks();

  ScenarioSpec spec_;
  topo::Topology topology_;
  std::optional<workload::Trace> trace_;
  std::unique_ptr<core::Network> net_;
  EventCounts counts_;
  bool ran_ = false;
  bool topology_built_ = false;
  bool check_invariants_ = false;
  std::vector<std::string> invariant_violations_;

  // --- checkpoint bookkeeping ---
  /// Simulator event id per script event (0 = not scheduled: build-time
  /// kinds, or already fired on a restored runner); parallel to
  /// spec_.events. Lets a snapshot classify pending script events.
  std::vector<sim::EventId> script_event_ids_;
  /// --checkpoint-every fences: absolute times and their one-shot ids.
  std::vector<SimTime> extra_checkpoint_times_;
  std::vector<sim::EventId> extra_event_ids_;
  std::vector<Snapshot> snapshots_;
  /// Index the next snapshot gets (restored runners continue the
  /// uninterrupted run's numbering).
  std::uint32_t next_snapshot_index_ = 0;
  /// Valid on a restored runner: the snapshot's own index and where the
  /// flow-injection chain picks up.
  bool restored_ = false;
  std::uint32_t restore_index_ = 0;
  core::Network::ResumeCursor resume_cursor_;
};

}  // namespace lazyctrl::scenario
