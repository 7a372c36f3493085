// Metrics collected during a control-plane run; everything the paper's
// evaluation section reports is derived from these.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/time.h"

namespace lazyctrl::core {

// The three X-macro lists below are the SINGLE source of truth for
// RunMetrics' fields: the declarations, identical_to(), diff_report() and
// the for_each_* registry enumeration all expand from them, so a field
// added to a list is automatically compared by the determinism gate,
// named in divergence diffs and enumerable by obs::Registry. A field added by hand instead
// fails the sizeof static_assert at the bottom of this header.
//
// Declaration-order note: keep series first, counters second,
// RunningStats last — diff_report reports the FIRST diverging field in
// this order.

/// TimeBucketSeries fields.
#define LAZYCTRL_METRICS_SERIES_FIELDS(X) \
  X(controller_requests)                  \
  X(packet_latency)                       \
  X(grouping_updates)                     \
  X(flow_arrivals)                        \
  X(inter_group_arrivals)

/// Plain uint64_t counters.
#define LAZYCTRL_METRICS_COUNTER_FIELDS(X) \
  X(flows_seen)                            \
  X(packets_accounted)                     \
  X(controller_packet_ins)                 \
  X(flows_local_delivery)                  \
  X(flows_intra_group)                     \
  X(flows_inter_group)                     \
  X(flows_flow_table_hit)                  \
  X(bf_false_positive_copies)              \
  X(bf_misforward_drops)                   \
  X(peer_link_messages)                    \
  X(state_link_messages)                   \
  X(control_link_messages)                 \
  X(grouping_update_count)                 \
  X(preload_rules_installed)               \
  X(transition_punts)                      \
  X(dgm_rounds)                            \
  X(dgm_plans_applied)                     \
  X(dgm_switch_moves)                      \
  X(dgm_group_merges)                      \
  X(dgm_group_splits)                      \
  X(dgm_flow_mods)                         \
  X(flows_degraded)                        \
  X(flows_dropped)                         \
  X(punt_retries)                          \
  X(punt_timeouts)                         \
  X(ctrl_admission_drops)                  \
  X(ctrl_msgs_lost)                        \
  X(ctrl_msgs_duped)                       \
  X(reconcile_repairs)

/// RunningStats fields.
#define LAZYCTRL_METRICS_STATS_FIELDS(X) \
  X(first_packet_latency_ms)             \
  X(controller_queue_delay_ms)

struct RunMetrics {
  explicit RunMetrics(SimDuration horizon)
      : controller_requests(kHour, horizon),
        packet_latency(kHour, horizon),
        grouping_updates(kHour, horizon),
        flow_arrivals(kHour, horizon),
        inter_group_arrivals(kHour, horizon) {}

  /// One event per controller request (PacketIn / relayed ARP); Fig. 7's
  /// workload series is this series' per-bucket rate.
  TimeBucketSeries controller_requests;
  /// Per-packet latency samples in milliseconds (Fig. 9).
  TimeBucketSeries packet_latency;
  /// One event per grouping update (Fig. 8).
  TimeBucketSeries grouping_updates;
  /// One event per flow seen / per controller-handled (inter-group) flow;
  /// their per-bucket ratio is the inter-group traffic fraction over time
  /// that the DGM drift bench reports.
  TimeBucketSeries flow_arrivals;
  TimeBucketSeries inter_group_arrivals;

  std::uint64_t flows_seen = 0;
  std::uint64_t packets_accounted = 0;
  std::uint64_t controller_packet_ins = 0;
  std::uint64_t flows_local_delivery = 0;      ///< same-switch flows
  std::uint64_t flows_intra_group = 0;         ///< handled by the LCG
  std::uint64_t flows_inter_group = 0;         ///< controller-handled
  std::uint64_t flows_flow_table_hit = 0;      ///< cached rule hits
  std::uint64_t bf_false_positive_copies = 0;  ///< extra copies sent
  std::uint64_t bf_misforward_drops = 0;       ///< copies dropped at peers
  std::uint64_t peer_link_messages = 0;
  std::uint64_t state_link_messages = 0;
  std::uint64_t control_link_messages = 0;
  std::uint64_t grouping_update_count = 0;
  std::uint64_t preload_rules_installed = 0;
  std::uint64_t transition_punts = 0;  ///< flows hit mid-transition w/o preload

  // --- Dynamic Group Maintenance (src/dgm) ---
  std::uint64_t dgm_rounds = 0;          ///< maintenance rounds evaluated
  std::uint64_t dgm_plans_applied = 0;   ///< rounds that committed a plan
  std::uint64_t dgm_switch_moves = 0;    ///< single-switch migrations
  std::uint64_t dgm_group_merges = 0;
  std::uint64_t dgm_group_splits = 0;
  std::uint64_t dgm_flow_mods = 0;  ///< staged rule updates pushed by DGM

  // --- Unreliable control plane (PR 9) ---
  /// Flows delivered via the §III-D flooding fallback after their punt
  /// exhausted all retries (delivered-but-degraded).
  std::uint64_t flows_degraded = 0;
  /// Flows dropped outright after punt exhaustion (openflow baseline has
  /// no flooding fallback). Conservation:
  ///   flows_seen == delivered + flows_degraded + flows_dropped
  /// with delivered = hit + local + intra + inter + transition punts and
  /// in_flight identically 0 at event fences (flows resolve within one
  /// simulator event).
  std::uint64_t flows_dropped = 0;
  std::uint64_t punt_retries = 0;   ///< punt re-sends after a lost leg
  std::uint64_t punt_timeouts = 0;  ///< punts that exhausted all retries
  std::uint64_t ctrl_admission_drops = 0;  ///< drop-tail queue rejections
  std::uint64_t ctrl_msgs_lost = 0;        ///< control messages lost
  std::uint64_t ctrl_msgs_duped = 0;       ///< duplicate copies delivered
  std::uint64_t reconcile_repairs = 0;     ///< anti-entropy FIB repairs

  /// Mean first-packet (setup) latency, milliseconds.
  RunningStats first_packet_latency_ms;
  /// Controller queueing delay per request, milliseconds.
  RunningStats controller_queue_delay_ms;

  /// Bit-exact equality of EVERY field — the single definition of the
  /// determinism gate; the flow-cursor fence, checkpoint-resume and
  /// rep-to-rep checks all compare through this. When it
  /// returns false, diff_report() names the offender.
  [[nodiscard]] bool identical_to(const RunMetrics& o) const {
    return true
#define LAZYCTRL_X(f) && f.identical_to(o.f)
        LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X)
            LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) && f == o.f
                LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X);
#undef LAZYCTRL_X
  }

  /// Human-readable divergence diagnosis: empty string when identical,
  /// otherwise one line naming the FIRST diverging field in declaration
  /// order — for series, also the first diverging time bucket and its
  /// hour label; for RunningStats, the first diverging moment. This is
  /// what lazyctrl_run prints when a repetition breaks the determinism
  /// gate. Defined in metrics.cpp.
  [[nodiscard]] std::string diff_report(const RunMetrics& o) const;

  /// Enumeration hooks for obs::Registry (and anything else that wants
  /// every field by name without hand-maintaining a list).
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
#define LAZYCTRL_X(f) fn(#f, f);
    LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
  }
  template <typename Fn>
  void for_each_series(Fn&& fn) const {
#define LAZYCTRL_X(f) fn(#f, f);
    LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
  }
  template <typename Fn>
  void for_each_running_stats(Fn&& fn) const {
#define LAZYCTRL_X(f) fn(#f, f);
    LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
  }
};

namespace detail {
#define LAZYCTRL_X(f) +1
inline constexpr std::size_t kMetricsSeriesFields =
    LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X);
inline constexpr std::size_t kMetricsCounterFields =
    LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X);
inline constexpr std::size_t kMetricsStatsFields =
    LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X);
#undef LAZYCTRL_X
}  // namespace detail

// Field-count lock: every RunMetrics member type is 8-byte aligned, so
// the struct's size is exactly the sum of its parts — a field declared
// in the struct but missing from its X-macro list (or vice versa) makes
// this fail to compile instead of silently escaping the determinism
// gate.
static_assert(sizeof(RunMetrics) ==
                  detail::kMetricsSeriesFields * sizeof(TimeBucketSeries) +
                      detail::kMetricsCounterFields * sizeof(std::uint64_t) +
                      detail::kMetricsStatsFields * sizeof(RunningStats),
              "RunMetrics field declared outside its X-macro list; add it "
              "to LAZYCTRL_METRICS_{SERIES,COUNTER,STATS}_FIELDS so "
              "compare/diff/enumerate all see it");

}  // namespace lazyctrl::core
