#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/log.h"

namespace lazyctrl::sim {

namespace {

/// Heap order: min-first by (time, seq).
bool later(const Event& a, const Event& b) noexcept {
  return a.time != b.time ? a.time > b.time : a.seq > b.seq;
}

}  // namespace

void Simulator::set_handler(EventKind kind, EventHandler* handler) {
  assert(kind != EventKind::kClosure);
  handlers_[static_cast<std::size_t>(kind)] = handler;
}

void Simulator::push(const Event& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Event Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Event e = heap_.back();
  heap_.pop_back();
  return e;
}

EventId Simulator::schedule_at(SimTime t, EventKind kind, std::uint64_t a) {
  const EventId id = next_id_++;
  push(Event{std::max(t, now_), next_seq_++, id, 0, kind, a});
  return id;
}

EventId Simulator::schedule_periodic(SimDuration period, EventKind kind,
                                     std::uint64_t a) {
  // Checked in every build: a period of 0 would re-fire at the same
  // instant forever and hang the run instead of failing it.
  if (period <= 0) {
    throw std::invalid_argument("schedule_periodic: period must be positive");
  }
  const EventId id = next_id_++;
  push(Event{now_ + period, next_seq_++, id, period, kind, a});
  return id;
}

EventId Simulator::schedule_at(SimTime t, Callback cb) {
  assert(cb);
  const EventId id = schedule_at(t, EventKind::kClosure);
  callbacks_.emplace(id, std::move(cb));
  return id;
}

EventId Simulator::schedule_periodic(SimDuration period, Callback cb) {
  assert(cb);
  const EventId id = schedule_periodic(period, EventKind::kClosure);
  callbacks_.emplace(id, std::move(cb));
  return id;
}

void Simulator::kill(Event& e) {
  callbacks_.erase(e.id);
  e.id = 0;  // keeps its heap slot; dropped when it reaches the head
  ++cancelled_;
}

void Simulator::cancel(EventId id) {
  if (id == 0) return;
  for (Event& e : heap_) {
    if (e.id == id) {
      kill(e);
      return;
    }
  }
}

void Simulator::cancel_kind(EventKind kind) {
  for (Event& e : heap_) {
    if (e.id != 0 && e.kind == kind) kill(e);
  }
}

void Simulator::dispatch(const Event& e) {
  now_ = e.time;
  // Publish the clock for log-line t= timestamps (one relaxed store per
  // dispatched event; a run of flows handled in one event shares it).
  set_log_sim_time(now_);
  if (e.id == 0) {
    --cancelled_;
    return;
  }
  ++processed_;
  // Re-arm before running so the event may cancel its own series.
  if (e.period > 0) {
    Event next = e;
    next.time += e.period;
    next.seq = next_seq_++;
    push(next);
  }
  if (e.kind != EventKind::kClosure) {
    EventHandler* handler = handlers_[static_cast<std::size_t>(e.kind)];
    assert(handler != nullptr && "no handler registered for this kind");
    handler->on_event(e);
    return;
  }
  const auto it = callbacks_.find(e.id);
  Callback cb = std::move(it->second);
  if (e.period == 0) {
    callbacks_.erase(it);
    cb();
    return;
  }
  // A periodic closure runs out of its slot, so cancelling its own
  // series (which erases the slot) cannot destroy it mid-call.
  cb();
  if (const auto again = callbacks_.find(e.id); again != callbacks_.end()) {
    again->second = std::move(cb);
  }
}

std::vector<Event> Simulator::pending() const {
  std::vector<Event> out;
  out.reserve(heap_.size() - cancelled_);
  for (const Event& e : heap_) {
    if (e.id != 0) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return later(b, a); });
  return out;
}

void Simulator::restore_clock(SimTime now, std::uint64_t next_seq,
                              EventId next_id, std::uint64_t processed) {
  assert(heap_.empty());
  now_ = now;
  next_seq_ = next_seq;
  next_id_ = next_id;
  processed_ = processed;
  set_log_sim_time(now_);
}

void Simulator::restore_event(const Event& e) {
  assert(e.kind != EventKind::kClosure && e.id != 0 && e.id < next_id_ &&
         e.seq < next_seq_);
  push(e);
}

SimTime Simulator::next_event_time() {
  // Drain cancelled carcasses so the head is a live event.
  while (!heap_.empty() && heap_.front().id == 0) {
    pop();
    --cancelled_;
  }
  return heap_.empty() ? kNoPendingEvent : heap_.front().time;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  dispatch(pop());
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) {
    dispatch(pop());
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace lazyctrl::sim
