// Deterministic discrete-event simulator.
//
// This is the substrate replacing the paper's physical testbed: switches,
// controllers and links are plain objects exchanging timestamped events.
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so runs are bit-reproducible.
//
// Every event the library schedules is a plain data record
// (time, seq, id, period, kind, a): the simulator hands it to the
// EventHandler registered for its kind, and the owner's one `switch`
// over the kind does the work (core::Network for the replay timers,
// migrations, the flow cursor and the failure wheels;
// scenario::ScenarioRunner for script events and checkpoint fences).
// Because a pending event is only data, a checkpoint dumps the queue
// verbatim and a restore loads it back (src/ckpt). Callers outside the
// library (tests, examples, benches) may still schedule closures; they
// share the same heap and sequence counter, so mixing the two keeps the
// (time, seq) order — but a snapshot refuses a pending closure.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/time.h"

namespace lazyctrl::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
/// Ids start at 1; 0 never names an event.
using EventId = std::uint64_t;

/// What a pending event does, i.e. which owner's switch dispatches it.
/// The numeric values are part of the snapshot format (ckpt::kFormatVersion).
enum class EventKind : std::uint8_t {
  kClosure = 0,  ///< a callback scheduled from outside the library
  // core::Network
  kStatsWindow = 1,    ///< periodic: roll the stats window
  kStateReport = 2,    ///< periodic: state-report tick
  kDgmRound = 3,       ///< periodic: DGM maintenance round
  kReconcile = 4,      ///< periodic: anti-entropy reconcile
  kMigration = 5,      ///< a = index of the scheduled VM migration
  kFlowCursor = 6,     ///< a = index of the next trace flow to inject
  kWheelKeepalive = 7, ///< periodic; a = first ring member of the wheel
  kWheelReboot = 8,    ///< a = the rebooting switch (§III-E3)
  // scenario::ScenarioRunner
  kScriptEvent = 9,      ///< a = index into the spec's event script
  kCheckpointFence = 10, ///< a = index of the extra checkpoint time
};
inline constexpr std::size_t kEventKindCount = 11;

/// One pending event. `period` is 0 for a one-shot; a periodic event
/// re-arms at time + period with a fresh sequence number each firing.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  EventId id = 0;
  SimDuration period = 0;
  EventKind kind = EventKind::kClosure;
  std::uint64_t a = 0;
};

/// The owner of one or more event kinds.
class EventHandler {
 public:
  virtual void on_event(const Event& e) = 0;

 protected:
  ~EventHandler() = default;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Routes every event of `kind` to `handler` (which must outlive the
  /// events it receives). Not valid for kClosure.
  void set_handler(EventKind kind, EventHandler* handler);

  /// Schedules a `kind` record with payload `a` at absolute time `t`
  /// (clamped to now). Returns an id that can be passed to `cancel`.
  EventId schedule_at(SimTime t, EventKind kind, std::uint64_t a = 0);

  /// Schedules a `kind` record every `period`, first firing at
  /// now + period. The returned id cancels the whole series. Throws
  /// `std::invalid_argument` unless `period > 0`.
  EventId schedule_periodic(SimDuration period, EventKind kind,
                            std::uint64_t a = 0);

  /// Closure variants, for callers outside the library.
  EventId schedule_at(SimTime t, Callback cb);
  EventId schedule_after(SimDuration delay, Callback cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }
  EventId schedule_periodic(SimDuration period, Callback cb);

  /// Cancels a pending (or periodic) event. Cancelling an already-fired
  /// one-shot event is a harmless no-op.
  void cancel(EventId id);
  /// Cancels every pending event of `kind`.
  void cancel_kind(EventKind kind);

  /// Runs until the queue is empty.
  void run();

  /// Runs all events with timestamp <= `deadline`; the clock ends at
  /// `deadline` even if the queue empties earlier.
  void run_until(SimTime deadline);

  /// Executes at most one pending event. Returns false if queue is empty.
  bool step();

  /// Timestamp of the next live (non-cancelled) event, or `kNoPendingEvent`
  /// when the queue is empty. Cancelled carcasses at the head are drained
  /// lazily. The replay flow cursor uses this as its safety fence: a run
  /// of flows handled in one event may only extend while every flow in it
  /// starts strictly before the next scheduled event, which keeps replay
  /// bit-identical to one event per flow.
  static constexpr SimTime kNoPendingEvent =
      std::numeric_limits<SimTime>::max();
  [[nodiscard]] SimTime next_event_time();

  [[nodiscard]] std::uint64_t processed_events() const noexcept {
    return processed_;
  }
  /// Allocation counters (next sequence number / event id to be handed
  /// out), recorded by a snapshot so restore_clock can realign them.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] EventId next_event_id() const noexcept { return next_id_; }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size() - cancelled_;
  }

  // --- checkpoint/restore support (src/ckpt) ---

  /// All live pending events, ordered by (time, seq).
  [[nodiscard]] std::vector<Event> pending() const;

  /// Restores the clock and allocation counters. Only meaningful on a
  /// fresh simulator (no events scheduled yet).
  void restore_clock(SimTime now, std::uint64_t next_seq, EventId next_id,
                     std::uint64_t processed);

  /// Loads one pending record from a snapshot under its exact
  /// (time, seq, id). The caller has validated it: a non-closure kind
  /// and a tuple that predates the restored counters.
  void restore_event(const Event& e);

 private:
  void push(const Event& e);
  /// Pops the head (the earliest (time, seq)).
  Event pop();
  void dispatch(const Event& e);
  /// Marks a live heap entry cancelled.
  void kill(Event& e);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
  /// Min-heap on (time, seq). A cancelled entry keeps its slot with
  /// id 0 until it reaches the head.
  std::vector<Event> heap_;
  std::size_t cancelled_ = 0;
  EventHandler* handlers_[kEventKindCount] = {};
  std::unordered_map<EventId, Callback> callbacks_;
};

}  // namespace lazyctrl::sim
