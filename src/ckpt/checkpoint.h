// Checkpoint/restore of a full deterministic run (the src/ckpt codec).
//
// A snapshot serializes EVERYTHING a resumed replay needs to continue
// bit-identically to the uninterrupted run: the scenario spec itself
// (topology and trace are re-derived from it — both are deterministic
// functions of the seed), the Network's mutable state (L-FIBs, C-LIB,
// flow tables, grouping, dormant/excluded hosts, failure wheels, DGM
// monitor/detector, RNG streams), the RunMetrics, and the simulator's
// pending event queue as a table of (time, seq, id) descriptors whose
// callbacks the restorer re-attaches under their exact tuples.
//
// Snapshots are only taken at scenario-event fences, where in-flight
// work is identically zero: every flow resolves within a single
// simulator event, so the pending queue holds nothing but classifiable
// control events (periodic timers, scheduled migrations, wheel
// keep-alives and reboots, the flow-injection cursor and the script
// itself). An unclassifiable pending event fails the save with a
// diagnosed error — that check IS the in-flight ≡ 0 assertion.
//
// G-FIBs are NOT serialized: a peer filter is a pure function of the
// member's current host set and the hidden-host sets (the delta-sync
// invariant in Network::rebuild_group_fib), so the restorer rebuilds
// them bit-identically from the restored topology + grouping.
//
// File format and robustness contract: see ckpt/io.h. The restore path
// validates every count and enum against live state and never crashes
// on corrupt, truncated or version-skewed input (tests/ckpt_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/io.h"

namespace lazyctrl {
class RunningStats;
class TimeBucketSeries;
}  // namespace lazyctrl

namespace lazyctrl::scenario {
class ScenarioRunner;
}

namespace lazyctrl::ckpt {

/// The snapshot codec. Every class whose private state travels in a
/// snapshot befriends this one type; all serialization code lives in its
/// member functions so the friendship surface stays a single name.
class StateAccess {
 public:
  /// Serializes the runner's full state at the current simulator fence.
  /// `index` is the snapshot's sequence number within the run (restored
  /// runners continue the numbering). Fails — with a diagnosed error and
  /// `out` untouched — when the pending queue holds in-flight work.
  static bool save(scenario::ScenarioRunner& runner, std::uint32_t index,
                   std::vector<std::uint8_t>* out, std::string* error);

  /// Rebuilds a runner from snapshot bytes: re-derives topology + trace
  /// from the embedded spec, reconstructs the network state verbatim and
  /// re-attaches every pending callback under its exact (time, seq, id)
  /// tuple. Returns nullptr with a line/offset-diagnosed error on any
  /// malformed input. The returned runner replays nothing until
  /// ScenarioRunner::finish().
  static std::unique_ptr<scenario::ScenarioRunner> restore_runner(
      const std::vector<std::uint8_t>& bytes, std::string* error);

 private:
  static void write_series(Writer& w, const TimeBucketSeries& s);
  static void read_series(Reader& r, TimeBucketSeries& s);
  static void write_running(Writer& w, const RunningStats& s);
  static void read_running(Reader& r, RunningStats& s);
};

/// Writes snapshot bytes to `path` (atomically enough for test/CLI use:
/// truncate + write + flush). Returns false with `*error` on I/O failure.
bool write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes,
                         std::string* error);

/// Reads a whole snapshot file. Returns false with `*error` when the
/// file is unreadable (content validation happens in restore_runner).
bool read_snapshot_file(const std::string& path,
                        std::vector<std::uint8_t>* out, std::string* error);

}  // namespace lazyctrl::ckpt
