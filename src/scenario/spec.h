// Declarative scenario specifications — the `.scn` format.
//
// A scenario file describes a complete experiment in one place: the
// topology to build, the workload to generate, the run configuration and
// a timed event script. The format is line-oriented key=value with
// `[section]` headers and `#` comments — no external parser dependency,
// mirroring the repo-wide no-new-deps rule:
//
//   # Cascading failures inside one group.
//   [scenario]
//   name = cascading_failure
//   seed = 7
//
//   [topology]
//   switches = 48
//   tenants = 30
//
//   [workload]
//   kind = real_like
//   flows = 20000
//   horizon = 2h
//
//   [config]
//   group_size_limit = 12
//   failover = true
//
//   [events]
//   at=10m fail_switch sw=3
//   at=12m recover_switch sw=3
//
// parse_scenario() collects ALL diagnostics (each tagged with its
// 1-based line number) instead of stopping at the first;
// serialize_scenario() renders the canonical form, and
// parse(serialize(spec)) reproduces the spec exactly (round-trip,
// enforced by tests/scenario_test.cpp). apply_override() applies one
// `section.key=value` assignment through the same key grammar — the
// `lazyctrl_run --set` hook.
//
// docs/SCENARIOS.md is the operator-facing reference for the grammar and
// every event primitive's semantics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/config.h"

namespace lazyctrl::scenario {

/// Timed event primitives a scenario script can inject. Semantics (and
/// the `core::Network` seam each one drives) are documented per-value
/// and in docs/SCENARIOS.md.
enum class EventKind : std::uint8_t {
  kFailSwitch,          ///< wheel: switch `sw` goes down
  kRecoverSwitch,       ///< wheel: switch `sw` comes back (resync)
  kFailPeerLink,        ///< wheel: ring link `sw` -> downstream fails
  kRecoverPeerLink,     ///< wheel: that ring link recovers
  kFailControlLink,     ///< wheel: `sw`'s controller spoke fails
  kRecoverControlLink,  ///< wheel: that spoke recovers
  kControllerOutage,    ///< controller stops serving for `duration`
  kMigrationBurst,      ///< `hosts` VMs live-migrate over `spread`
  kTenantArrival,       ///< dormant tenant `tenant` is announced
  kTenantDeparture,     ///< tenant `tenant` leaves (rules revoked)
  kTrafficSurge,        ///< flow arrivals x`factor` for `duration`
  kForceRegroup,        ///< immediate DGM round / IncUpdate renegotiation
  kSetControlLoss,      ///< control-channel loss probability := `rate`
  kSetControlDup,       ///< control-channel duplication prob. := `rate`
  kSetCtrlQueueCap,     ///< controller backlog drop-tail cap := `cap`
  kReconcile,           ///< anti-entropy audit/repair of FIB state
  kCheckpoint,          ///< serialize the full run state at this fence
};

/// Canonical spelling of an event primitive (the `.scn` keyword).
[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// The failure kind a recovery event undoes (kRecoverSwitch ->
/// kFailSwitch, ...), or std::nullopt for non-recovery kinds. Shared by
/// the parser, the runner's validator and the fuzzer so "recovery
/// scheduled before its failure" means the same thing everywhere.
[[nodiscard]] std::optional<EventKind> paired_failure_kind(
    EventKind kind) noexcept;

/// One line of the `[events]` section. Only the fields relevant to
/// `kind` are meaningful; the rest keep their defaults (which is what
/// makes the defaulted equality a faithful round-trip check).
struct ScenarioEvent {
  SimTime at = 0;
  EventKind kind = EventKind::kForceRegroup;
  std::uint32_t sw = 0;       ///< switch-targeted wheel events
  std::uint32_t tenant = 0;   ///< tenant_arrival / tenant_departure
  std::uint32_t hosts = 0;    ///< migration_burst: VMs to move
  SimDuration spread = 0;     ///< migration_burst: window the moves span
  SimDuration duration = 0;   ///< controller_outage / traffic_surge
  double factor = 2.0;        ///< traffic_surge arrival multiplier
  double rate = 0.0;          ///< set_control_loss / set_control_dup
  std::uint64_t cap = 0;      ///< set_ctrl_queue_cap (0 = unlimited)

  bool operator==(const ScenarioEvent&) const = default;
};

/// `[topology]` — multi-tenant edge topology sizing (topo::builder).
struct TopologySpec {
  std::size_t switches = 48;
  std::size_t tenants = 30;
  std::size_t min_vms_per_tenant = 10;
  std::size_t max_vms_per_tenant = 30;
  std::size_t vms_per_switch = 12;

  bool operator==(const TopologySpec&) const = default;
};

enum class WorkloadKind : std::uint8_t {
  kRealLike,          ///< enterprise-trace stand-in (workload::generators)
  kSynthetic,         ///< the paper's (p, q) synthetic procedure
  kDriftingLocality,  ///< phase-drifting switch communities (DGM stress)
};

[[nodiscard]] const char* to_string(WorkloadKind kind) noexcept;

/// `[workload]` — trace generator selection and sizing.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kRealLike;
  std::size_t flows = 20'000;
  SimDuration horizon = 2 * kHour;
  bool flat_profile = false;  ///< profile = flat | business_day
  // kSynthetic only:
  double p = 90.0;
  double q = 10.0;
  // kDriftingLocality only:
  std::size_t communities = 6;
  double intra_share = 0.85;
  std::size_t phases = 4;
  double drift_fraction = 0.25;

  bool operator==(const WorkloadSpec&) const = default;
};

/// A parsed scenario: metadata + topology + workload + run config +
/// event script. `config` is a full core::Config; the `[config]` section
/// exposes the load-bearing knobs by name (see spec.cpp / SCENARIOS.md)
/// and leaves the rest at their defaults.
struct ScenarioSpec {
  // [scenario]
  std::string name = "unnamed";
  std::string description;
  std::uint64_t seed = 1;

  TopologySpec topology;
  WorkloadSpec workload;
  core::Config config;
  /// `[config] bootstrap = history | index`: IniGroup from the first
  /// hour of the generated trace, or index-order grouping.
  bool bootstrap_history = true;

  /// Event script, in file order (the runner schedules by `at`; the
  /// simulator orders equal timestamps by scheduling order, i.e. file
  /// order — deterministic).
  std::vector<ScenarioEvent> events;

  bool operator==(const ScenarioSpec&) const = default;
};

/// One parse problem, anchored to its 1-based source line (0 = file
/// level, e.g. unreadable path).
struct Diagnostic {
  int line = 0;
  std::string message;
};

struct ParseResult {
  ScenarioSpec spec;
  std::vector<Diagnostic> errors;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  /// All diagnostics as "line N: message" lines (for CLI / test output).
  [[nodiscard]] std::string error_text() const;
};

/// Parses a scenario document. Collects every diagnostic it can instead
/// of stopping at the first; `spec` holds whatever parsed cleanly (only
/// trustworthy when ok()).
[[nodiscard]] ParseResult parse_scenario(const std::string& text);

/// Reads and parses `path`; an unreadable file yields one line-0
/// diagnostic.
[[nodiscard]] ParseResult parse_scenario_file(const std::string& path);

/// Renders the canonical form: every accepted key with its current
/// value, sections in fixed order, events in script order.
/// parse_scenario(serialize_scenario(s)).spec == s for any valid spec.
[[nodiscard]] std::string serialize_scenario(const ScenarioSpec& spec);

/// Applies one `section.key=value` assignment (e.g.
/// "config.fib.layout=linear", "workload.flows=500",
/// "scenario.seed=9") through the same key grammar as the parser.
/// Returns false and sets `*error` on an unknown key or malformed value.
bool apply_override(ScenarioSpec& spec, const std::string& assignment,
                    std::string* error);

/// Duration literal: a non-negative decimal number with an optional unit
/// suffix (ns, us, ms, s, m, h); a bare number means seconds. Exposed
/// for tests.
bool parse_duration(const std::string& text, SimDuration* out);
/// Largest-exact-unit rendering ("90s", "2h", "1500ms"); inverse of
/// parse_duration for every representable value.
[[nodiscard]] std::string format_duration(SimDuration d);

}  // namespace lazyctrl::scenario
