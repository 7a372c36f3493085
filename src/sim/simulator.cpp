#include "sim/simulator.h"

#include <cassert>
#include <memory>
#include <stdexcept>

#include "common/log.h"

namespace lazyctrl::sim {

EventId Simulator::schedule_at(SimTime t, Callback cb) {
  assert(cb);
  if (t < now_) t = now_;
  const EventId id = next_id_++;
  callbacks_.emplace(id, std::move(cb));
  queue_.push(Event{t, next_seq_++, id});
  return id;
}

EventId Simulator::schedule_periodic(SimDuration period, Callback cb) {
  assert(cb);
  // Checked in every build: a period of 0 would re-fire at the same
  // instant forever and hang the run instead of failing it.
  if (period <= 0) {
    throw std::invalid_argument("schedule_periodic: period must be positive");
  }
  const EventId id = next_id_++;
  periodics_.emplace(id, Periodic{period, std::move(cb)});
  queue_.push(Event{now_ + period, next_seq_++, id});
  return id;
}

void Simulator::cancel(EventId id) {
  if (callbacks_.erase(id) > 0 || periodics_.erase(id) > 0) {
    cancelled_.insert(id);
  }
}

void Simulator::dispatch(const Event& e) {
  now_ = e.time;
  // Publish the clock for log-line t= timestamps (one relaxed store per
  // dispatched event; a run of flows handled in one event shares it).
  set_log_sim_time(now_);
  if (cancelled_.erase(e.id) > 0) return;

  if (auto it = callbacks_.find(e.id); it != callbacks_.end()) {
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    ++processed_;
    cb();
    return;
  }
  if (auto it = periodics_.find(e.id); it != periodics_.end()) {
    ++processed_;
    // Re-arm before invoking so the callback may cancel its own series.
    queue_.push(Event{e.time + it->second.period, next_seq_++, e.id});
    it->second.callback();
  }
}

std::vector<Simulator::PendingEvent> Simulator::pending_snapshot() const {
  std::vector<PendingEvent> out;
  out.reserve(queue_.size());
  auto copy = queue_;  // priority_queue: drain a copy, min-first
  while (!copy.empty()) {
    const Event e = copy.top();
    copy.pop();
    if (cancelled_.contains(e.id)) continue;  // dead carcass
    PendingEvent p{e.time, e.seq, e.id, false, 0};
    if (const auto it = periodics_.find(e.id); it != periodics_.end()) {
      p.periodic = true;
      p.period = it->second.period;
    }
    out.push_back(p);
  }
  return out;
}

void Simulator::restore_clock(SimTime now, std::uint64_t next_seq,
                              EventId next_id, std::uint64_t processed) {
  assert(queue_.empty() && callbacks_.empty() && periodics_.empty());
  now_ = now;
  next_seq_ = next_seq;
  next_id_ = next_id;
  processed_ = processed;
  set_log_sim_time(now_);
}

void Simulator::restore_one_shot(SimTime t, std::uint64_t seq, EventId id,
                                 Callback cb) {
  assert(cb && id < next_id_ && seq < next_seq_);
  callbacks_.emplace(id, std::move(cb));
  queue_.push(Event{t, seq, id});
}

void Simulator::restore_periodic(SimTime next_fire, std::uint64_t seq,
                                 EventId id, SimDuration period,
                                 Callback cb) {
  assert(cb && period > 0 && id < next_id_ && seq < next_seq_);
  periodics_.emplace(id, Periodic{period, std::move(cb)});
  queue_.push(Event{next_fire, seq, id});
}

SimTime Simulator::next_event_time() {
  // Drain cancelled carcasses so the head is a live event.
  while (!queue_.empty() && cancelled_.contains(queue_.top().id)) {
    cancelled_.erase(queue_.top().id);
    queue_.pop();
  }
  return queue_.empty() ? kNoPendingEvent : queue_.top().time;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Event e = queue_.top();
  queue_.pop();
  dispatch(e);
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.top().time <= deadline) {
    const Event e = queue_.top();
    queue_.pop();
    dispatch(e);
  }
  if (now_ < deadline) now_ = deadline;
}

namespace {

/// The self-continuing chain closure shared by fresh and resumed chains.
/// When `tracker` is non-null every (re)scheduled link publishes its
/// (id, cursor, time) so a checkpoint can describe the chain's single
/// pending event.
std::shared_ptr<std::function<void(std::size_t)>> make_cursor_chain(
    Simulator& sim, CursorStep step, CursorTracker* tracker) {
  auto chain = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak_chain = chain;
  // `sim` outlives the chain: every reference to the continuation lives
  // in the simulator's own callback storage (or on this stack frame).
  *chain = [&sim, step = std::move(step), weak_chain,
            tracker](std::size_t i) {
    const std::optional<std::pair<std::size_t, SimTime>> next = step(i);
    if (!next.has_value()) {
      if (tracker != nullptr) tracker->active = false;
      return;
    }
    auto strong = weak_chain.lock();  // non-null: *strong is running
    const EventId id = sim.schedule_at(
        next->second, [strong, idx = next->first] { (*strong)(idx); });
    if (tracker != nullptr) {
      *tracker = CursorTracker{
          id, next->first,
          next->second < sim.now() ? sim.now() : next->second, true};
    }
  };
  return chain;
}

}  // namespace

void schedule_cursor_chain(Simulator& sim, SimTime first_at, CursorStep step,
                           CursorTracker* tracker) {
  auto chain = make_cursor_chain(sim, std::move(step), tracker);
  const EventId id = sim.schedule_at(first_at, [chain] { (*chain)(0); });
  if (tracker != nullptr) {
    *tracker = CursorTracker{
        id, 0, first_at < sim.now() ? sim.now() : first_at, true};
  }
}

void resume_cursor_chain(Simulator& sim, SimTime at, std::uint64_t seq,
                         EventId id, std::size_t index, CursorStep step,
                         CursorTracker* tracker) {
  auto chain = make_cursor_chain(sim, std::move(step), tracker);
  sim.restore_one_shot(at, seq, id, [chain, index] { (*chain)(index); });
  if (tracker != nullptr) {
    *tracker = CursorTracker{id, index, at, true};
  }
}

}  // namespace lazyctrl::sim
