// Deterministic discrete-event simulator.
//
// This is the substrate replacing the paper's physical testbed: switches,
// controllers and links are plain objects exchanging timestamped callbacks.
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sim/event_fn.h"

namespace lazyctrl::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

class Simulator {
 public:
  /// Small-buffer-optimized move-only callable: scheduling an event whose
  /// captures fit EventFn::kInlineBytes performs no callback allocation
  /// (std::function heap-allocated anything beyond ~2 pointers, one
  /// allocation per scheduled event on the replay hot path).
  using Callback = EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `t` (>= now). Returns an id
  /// that can be passed to `cancel`.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` to run `delay` after the current time.
  EventId schedule_after(SimDuration delay, Callback cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Schedules `cb` every `period`, first firing at now + period.
  /// The returned id cancels the whole series. Throws
  /// `std::invalid_argument` unless `period > 0`.
  EventId schedule_periodic(SimDuration period, Callback cb);

  /// Cancels a pending (or periodic) event. Cancelling an already-fired
  /// one-shot event is a harmless no-op.
  void cancel(EventId id);

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
    return queue_.size() - cancelled_.size();
  }

  // --- checkpoint/restore support (src/ckpt) ---
  //
  // Closures cannot be serialized, so a snapshot records each pending
  // event as (time, seq, id [, period]) and the restoring side re-attaches
  // an equivalent callback under the SAME tuple. Together with
  // restore_clock this realigns the restored run's (time, seq) ordering
  // and every future id/seq allocation with the uninterrupted run, which
  // is what makes a resumed replay bit-identical.

  /// One live pending queue entry (cancelled carcasses are excluded).
  struct PendingEvent {
    SimTime time = 0;
    std::uint64_t seq = 0;
    EventId id = 0;
    bool periodic = false;
    SimDuration period = 0;  ///< valid when `periodic`
  };
  /// All live pending events, ordered by (time, seq).
  [[nodiscard]] std::vector<PendingEvent> pending_snapshot() const;

  /// Restores the clock and allocation counters. Only meaningful on a
  /// fresh simulator (no events scheduled yet).
  void restore_clock(SimTime now, std::uint64_t next_seq, EventId next_id,
                     std::uint64_t processed);

  /// Re-creates a pending one-shot under an exact (time, seq, id) tuple
  /// from a snapshot. The tuple must predate the restored counters.
  void restore_one_shot(SimTime t, std::uint64_t seq, EventId id,
                        Callback cb);

  /// Re-creates a periodic series whose next firing is the exact
  /// (next_fire, seq, id) tuple from a snapshot; later firings re-arm
  /// with fresh sequence numbers exactly as the uninterrupted run would.
  void restore_periodic(SimTime next_fire, std::uint64_t seq, EventId id,
                        SimDuration period, Callback cb);

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    // Ordered min-first by (time, seq).
    friend bool operator>(const Event& a, const Event& b) noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  struct Periodic {
    SimDuration period;
    Callback callback;
  };

  void dispatch(const Event& e);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_map<EventId, Callback> callbacks_;
  std::unordered_map<EventId, Periodic> periodics_;
  std::unordered_set<EventId> cancelled_;
};

/// One link of a cursor chain: runs at its scheduled time with the
/// current cursor, and returns the next (cursor, timestamp) to continue
/// the chain — or nothing to end it.
using CursorStep =
    std::function<std::optional<std::pair<std::size_t, SimTime>>(
        std::size_t)>;

/// Live position of a cursor chain, maintained by the chain itself when
/// the caller passes one to schedule_cursor_chain / resume_cursor_chain.
/// A checkpoint reads it to describe the chain's single pending event
/// (the cursor it will run with); a restore re-creates the chain from it.
struct CursorTracker {
  EventId id = 0;         ///< pending event id (classifies the queue entry)
  std::size_t index = 0;  ///< cursor the pending event will run with
  SimTime at = 0;         ///< its scheduled timestamp
  bool active = false;    ///< false once the chain ended
};

/// Schedules a self-continuing one-event-at-a-time cursor chain starting
/// with cursor 0 at `first_at`. This owns the lifetime-sensitive pattern
/// of the replay flow injector (fresh and checkpoint-resumed):
/// the stored continuation holds only a weak self-reference — a strong
/// one would form a shared_ptr cycle and leak it after every replay —
/// while each scheduled event captures a strong reference, which is what
/// keeps the chain alive across Simulator::run_until().
void schedule_cursor_chain(Simulator& sim, SimTime first_at, CursorStep step,
                           CursorTracker* tracker = nullptr);

/// Re-creates a checkpointed cursor chain: the pending link is restored
/// under its exact (at, seq, id) snapshot tuple and runs `step` with
/// `index`; the chain then continues normally.
void resume_cursor_chain(Simulator& sim, SimTime at, std::uint64_t seq,
                         EventId id, std::size_t index, CursorStep step,
                         CursorTracker* tracker = nullptr);

}  // namespace lazyctrl::sim
