// Configuration for a LazyCtrl (or baseline OpenFlow) control plane run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace lazyctrl::core {

/// Which control plane drives the network.
enum class ControlMode {
  kOpenFlow,  ///< Baseline: every new flow is set up by the controller.
  kLazyCtrl,  ///< Hybrid: LCGs handle intra-group flows, controller the rest.
};

struct LatencyModel {
  /// Host NIC <-> edge switch.
  SimDuration host_link = 20 * kMicrosecond;
  /// One-hop underlay path between any two edge switches (§III-B1).
  SimDuration datapath = 150 * kMicrosecond;
  /// Per-switch pipeline processing (table lookups, encap).
  SimDuration switch_processing = 10 * kMicrosecond;
  /// One-way control/state/peer link latency to the controller or peers.
  SimDuration control_link = 500 * kMicrosecond;
  /// Controller service time per request (1 / capacity). The paper cites
  /// ~30K requests/s for commodity controllers; scaled runs keep the ratio.
  SimDuration controller_service = 50 * kMicrosecond;

  bool operator==(const LatencyModel&) const = default;
};

struct ControllerConfig {
  /// Number of servers behind the logically centralized controller
  /// (§III-B2: "a logical controller comprised of a cluster of servers").
  /// Requests go to the earliest-free server (M/D/k-style FIFO).
  std::size_t servers = 1;

  // --- unreliable control plane (all defaults are behavior-preserving) ---
  /// Per-message control-channel loss probability in [0, 1]. Decided by a
  /// splitmix64 hash of (flow id, attempt, direction, seed) — never the
  /// run RNG — so lossy runs stay bit-identical across reps, and rate 0
  /// is a true no-op.
  double loss_rate = 0.0;
  /// Per-message control-channel duplication probability in [0, 1]. A
  /// duplicate consumes control-link bandwidth (message counters) but is
  /// idempotent at the receiver.
  double dup_rate = 0.0;
  /// Outage/backlog queue capacity (0 = unlimited). When bounded, punts
  /// arriving during an outage with a full backlog get an explicit reject
  /// reply instead of queueing (drop-tail admission).
  std::size_t queue_cap = 0;
  /// Retries an edge switch attempts after a punt's reply times out (the
  /// initial attempt is not a retry). Past the limit the flow degrades to
  /// §III-D intra-group flooding (LazyCtrl) or is dropped (OpenFlow).
  std::uint32_t punt_retry_limit = 3;
  /// Base detection timeout / backoff unit: a failed attempt k costs
  /// (punt_retry_base << k) plus deterministic jitter before the next try.
  SimDuration punt_retry_base = 2 * kMillisecond;
  /// Anti-entropy reconciliation period (0 = off): periodically audits
  /// and repairs L-FIB/C-LIB/G-FIB state that diverged under loss.
  SimDuration reconcile_period = 0;

  bool operator==(const ControllerConfig&) const = default;
};

struct GroupingConfig {
  /// Hard cap on switches per local control group.
  std::size_t group_size_limit = 46;
  /// Adapt grouping at runtime (IncUpdate); false = static initial grouping.
  bool dynamic_regrouping = true;
  /// Trigger: accumulated controller-workload growth since the last update.
  double workload_growth_trigger = 0.30;
  /// Minimum interval between grouping updates (anti-oscillation).
  SimDuration min_update_interval = 2 * kMinute;
  /// Window over which workload/traffic statistics are accumulated.
  SimDuration stats_window = 1 * kMinute;
  /// EWMA decay for the recent intensity estimate: each closed window
  /// contributes (1 - decay) of the estimate, so the effective horizon is
  /// stats_window / (1 - decay). Smooths out scaled-trace noise so
  /// IncUpdate follows traffic structure rather than per-window jitter.
  double intensity_ewma_decay = 0.85;
  /// IncUpdate is skipped when the recent intensity estimate carries fewer
  /// flows than this — regrouping on no evidence only churns state.
  double min_update_flow_evidence = 200.0;
  /// Max merge-split iterations per IncUpdate invocation.
  int max_incupdate_iterations = 4;
  /// Appendix B: process several disjoint group pairs per iteration.
  bool parallel_incupdate = false;
  /// Appendix B: preload temporary rules during grouping transitions.
  bool preload_on_update = true;
  /// Duration of the reconfiguration window after an update during which
  /// affected switches lack fresh G-FIBs (absorbed by preload when on).
  SimDuration transition_window = 200 * kMillisecond;
  /// Appendix B: exclude hosts of switches serving more tenants than this
  /// from grouping (0 = feature off); their flows go to the controller.
  std::size_t host_exclusion_tenant_threshold = 0;

  bool operator==(const GroupingConfig&) const = default;
};

/// Dynamic Group Maintenance (the src/dgm subsystem): keeps switch groups
/// tracking traffic drift online, without rerunning the full multilevel
/// partitioner on the hot path.
enum class DgmMode {
  kOff,             ///< groups frozen after IniGroup (or legacy IncUpdate)
  kPeriodic,        ///< regroup attempt every `maintenance_period`
  kDriftTriggered,  ///< regroup only when the drift detector fires
};

struct DgmConfig {
  DgmMode mode = DgmMode::kOff;
  /// Cadence of maintenance rounds. In kDriftTriggered mode this is how
  /// often the drift detector is evaluated; regrouping itself only happens
  /// on a triggered verdict.
  SimDuration maintenance_period = 5 * kMinute;
  /// Absolute drift trigger: inter-group fraction of the monitored
  /// cross-switch intensity above this fires the detector.
  double inter_fraction_limit = 0.15;
  /// Relative drift trigger: inter-group fraction above
  /// `degradation_factor` x the post-last-regroup baseline fires too...
  double degradation_factor = 1.5;
  /// ...but only once the fraction also exceeds this floor (keeps noise on
  /// near-perfect groupings from triggering).
  double degradation_floor = 0.02;
  /// Group-size skew trigger: (max - min group size) / group_size_limit
  /// above this fires. Skewed groups concentrate designated-switch load.
  double size_skew_limit = 0.75;
  /// Rounds are skipped while the decayed intensity estimate carries fewer
  /// flows than this — regrouping on no evidence only churns state.
  double min_flow_evidence = 200.0;
  /// Minimum time between applied plans (anti-oscillation).
  SimDuration cooldown = 2 * kMinute;
  /// Migration-cost bounds per maintenance round.
  std::size_t max_moves_per_round = 8;
  std::size_t max_merges_per_round = 2;
  std::size_t max_splits_per_round = 2;
  /// A planned action must improve its local objective by at least this
  /// fraction to be committed (marginal gains on sampled estimates churn).
  double min_gain_fraction = 0.02;

  bool operator==(const DgmConfig&) const = default;
};

/// Storage layout of the G-FIB Bloom bank. Both layouts hold the SAME
/// bits and produce bit-identical candidate sets (including false
/// positives) for any key; they differ only in memory order and therefore
/// scan cost.
enum class GFibLayout {
  /// One independent filter per peer; a scan probes S-1 bit arrays
  /// (O(S) cache lines). The paper's literal §III-D2 layout.
  kLinear,
  /// Bit-sliced (transposed): per bit position, a word-packed peer mask;
  /// a scan ANDs k peer masks (O(k) cache lines regardless of group
  /// size). See bloom::SlicedBloomBank.
  kSliced,
};

struct FibConfig {
  /// Bloom-filter bits per G-FIB entry filter. The paper's sizing example
  /// uses 16 x 128-byte entries = 2048 bytes = 16384 bits per peer filter.
  std::size_t bloom_bits = 16384;
  std::size_t bloom_hashes = 8;
  /// G-FIB bank layout; kSliced is the cache-interleaved fast scan,
  /// kLinear the literal per-peer transcription (same candidate sets).
  GFibLayout layout = GFibLayout::kSliced;
  /// Report mis-forwarded (false-positive) packets to the controller so it
  /// can install exact rules (§III-D4, optional).
  bool report_false_positives = false;

  bool operator==(const FibConfig&) const = default;
};

struct RuleConfig {
  /// TTL for reactively installed rules; hit refreshes the expiry.
  SimDuration rule_ttl = 60 * kSecond;
  /// Per-switch flow-table capacity (0 = unlimited).
  std::size_t flow_table_capacity = 0;

  bool operator==(const RuleConfig&) const = default;
};

/// Vestige of the removed sharded replay runtime: replay is always
/// single-threaded, and nothing here can be set. It stays only because
/// perfbench/perfbench.cpp still reads `spec.config.runtime.num_shards`
/// as a guard; drop the struct together with that guard.
struct RuntimeConfig {
  static constexpr std::size_t num_shards = 1;

  bool operator==(const RuntimeConfig&) const = default;
};

/// Full configuration of a run; every subsystem documents its own knobs
/// above and the README's "Configuration" section summarises them.
struct Config {
  /// Which control plane drives the network (kOpenFlow = baseline).
  ControlMode mode = ControlMode::kLazyCtrl;
  /// Link/processing/service latencies of the simulated fabric.
  LatencyModel latency;
  /// Controller cluster sizing (M/D/k queueing model).
  ControllerConfig controller;
  /// LCG sizing, IncUpdate triggers and transition handling.
  GroupingConfig grouping;
  /// Dynamic Group Maintenance (off unless dgm.mode is set).
  DgmConfig dgm;
  /// G-FIB Bloom-filter geometry and mis-forward reporting.
  FibConfig fib;
  /// Reactive-rule TTL and flow-table capacity.
  RuleConfig rules;
  /// Always one shard (see RuntimeConfig).
  RuntimeConfig runtime;
  /// Designated switches report aggregated state this often (state link).
  SimDuration state_report_period = 30 * kSecond;
  /// Enable the per-group failure-detection wheel (keep-alive machinery);
  /// off by default because long replays do not exercise failures.
  bool failover_enabled = false;
  /// Keep-alive period on the wheel when failover is enabled.
  SimDuration keepalive_period = 1 * kSecond;
  /// Keep-alives missed before declaring loss.
  int keepalive_loss_threshold = 3;
  /// Time for a remotely rebooted switch to come back (§III-E3).
  SimDuration switch_reboot_delay = 10 * kSecond;
  /// Master seed for all run randomness; equal seeds replay bit-identically.
  std::uint64_t seed = 1;

  bool operator==(const Config&) const = default;
};

}  // namespace lazyctrl::core
