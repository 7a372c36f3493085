// Tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace lazyctrl::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  SimTime inner_fired = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { inner_fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(inner_fired, 150);
}

TEST(SimulatorTest, PastDeadlinesClampToNow) {
  Simulator s;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { EXPECT_EQ(s.now(), 100); });
  });
  s.run();
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator s;
  const EventId id = s.schedule_at(1, [] {});
  s.run();
  s.cancel(id);  // must not crash or corrupt
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator s;
  int fires = 0;
  s.schedule_periodic(10, [&] { ++fires; });
  s.run_until(55);
  EXPECT_EQ(fires, 5);  // t = 10,20,30,40,50
  EXPECT_EQ(s.now(), 55);
}

TEST(SimulatorTest, PeriodicRejectsNonPositivePeriod) {
  // Checked in release builds too: a zero period would re-fire at the
  // same instant forever.
  Simulator s;
  EXPECT_THROW(s.schedule_periodic(0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_periodic(-5, [] {}), std::invalid_argument);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, PeriodicCancelStopsSeries) {
  Simulator s;
  int fires = 0;
  const EventId id = s.schedule_periodic(10, [&] { ++fires; });
  s.schedule_at(35, [&] { s.cancel(id); });
  s.run_until(100);
  EXPECT_EQ(fires, 3);
}

TEST(SimulatorTest, PeriodicCanCancelItself) {
  Simulator s;
  int fires = 0;
  EventId id = 0;
  id = s.schedule_periodic(10, [&] {
    if (++fires == 2) s.cancel(id);
  });
  s.run_until(100);
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(SimulatorTest, RunUntilDoesNotExecuteLaterEvents) {
  Simulator s;
  bool fired = false;
  s.schedule_at(100, [&] { fired = true; });
  s.run_until(99);
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(100);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator s;
  int fires = 0;
  s.schedule_at(1, [&] { ++fires; });
  s.schedule_at(2, [&] { ++fires; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, ProcessedEventsCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.processed_events(), 7u);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreExecuted) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST(SimulatorTest, NextEventTimeEmptyQueue) {
  Simulator s;
  EXPECT_EQ(s.next_event_time(), Simulator::kNoPendingEvent);
}

TEST(SimulatorTest, NextEventTimeReportsEarliestPending) {
  Simulator s;
  s.schedule_at(30, [] {});
  s.schedule_at(10, [] {});
  EXPECT_EQ(s.next_event_time(), 10);
  s.step();
  EXPECT_EQ(s.next_event_time(), 30);
}

TEST(SimulatorTest, NextEventTimeSkipsCancelledEvents) {
  Simulator s;
  const EventId early = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  s.cancel(early);
  EXPECT_EQ(s.next_event_time(), 20);
  EXPECT_EQ(s.pending_events(), 1u);
}

// --- data records ---

/// Logs every record it is handed.
struct RecordingHandler : EventHandler {
  std::vector<Event> seen;
  void on_event(const Event& e) override { seen.push_back(e); }
};

TEST(SimulatorTest, RecordsReachTheHandlerOfTheirKind) {
  Simulator s;
  RecordingHandler migrations;
  RecordingHandler cursor;
  s.set_handler(EventKind::kMigration, &migrations);
  s.set_handler(EventKind::kFlowCursor, &cursor);
  s.schedule_at(20, EventKind::kFlowCursor, 7);
  s.schedule_at(10, EventKind::kMigration, 3);
  s.run();
  ASSERT_EQ(migrations.seen.size(), 1u);
  EXPECT_EQ(migrations.seen[0].a, 3u);
  EXPECT_EQ(migrations.seen[0].time, 10);
  ASSERT_EQ(cursor.seen.size(), 1u);
  EXPECT_EQ(cursor.seen[0].a, 7u);
  EXPECT_EQ(s.processed_events(), 2u);
}

TEST(SimulatorTest, RecordsAndClosuresShareOneOrder) {
  // Same timestamp: scheduling order decides, whatever the event type.
  Simulator s;
  std::vector<int> order;
  struct Handler : EventHandler {
    std::vector<int>* order;
    void on_event(const Event& e) override {
      order->push_back(static_cast<int>(e.a));
    }
  } h;
  h.order = &order;
  s.set_handler(EventKind::kScriptEvent, &h);
  s.schedule_at(5, EventKind::kScriptEvent, 0);
  s.schedule_at(5, [&] { order.push_back(1); });
  s.schedule_at(5, EventKind::kScriptEvent, 2);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, PeriodicRecordReArmsAndCancels) {
  Simulator s;
  RecordingHandler h;
  s.set_handler(EventKind::kStatsWindow, &h);
  const EventId id = s.schedule_periodic(10, EventKind::kStatsWindow);
  s.run_until(35);
  ASSERT_EQ(h.seen.size(), 3u);  // t = 10, 20, 30
  for (const Event& e : h.seen) {
    EXPECT_EQ(e.id, id);
    EXPECT_EQ(e.period, 10);
  }
  EXPECT_LT(h.seen[0].seq, h.seen[1].seq);  // fresh seq per firing
  s.cancel(id);
  s.run_until(100);
  EXPECT_EQ(h.seen.size(), 3u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, PendingListsLiveRecordsInFiringOrder) {
  Simulator s;
  s.schedule_at(30, EventKind::kMigration, 1);
  const EventId dead = s.schedule_at(10, EventKind::kMigration, 2);
  s.schedule_at(20, EventKind::kMigration, 3);
  s.schedule_periodic(20, [] {});
  s.cancel(dead);
  const std::vector<Event> p = s.pending();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].a, 3u);
  EXPECT_EQ(p[1].kind, EventKind::kClosure);  // same time, scheduled later
  EXPECT_EQ(p[1].period, 20);
  EXPECT_EQ(p[2].a, 1u);
}

TEST(SimulatorTest, RestoredRecordsFireUnderTheirTuples) {
  // A queue dumped from one simulator and loaded into a fresh one fires
  // in the same order with the same ids, and later allocations continue
  // from the restored counters.
  Simulator a;
  a.schedule_at(10, EventKind::kMigration, 1);
  a.schedule_periodic(7, EventKind::kStatsWindow);
  a.schedule_at(10, EventKind::kMigration, 2);

  Simulator b;
  b.restore_clock(a.now(), a.next_seq(), a.next_event_id(),
                  a.processed_events());
  for (const Event& e : a.pending()) b.restore_event(e);

  RecordingHandler ha;
  RecordingHandler hb;
  for (auto [sim, h] : {std::pair{&a, &ha}, std::pair{&b, &hb}}) {
    sim->set_handler(EventKind::kMigration, h);
    sim->set_handler(EventKind::kStatsWindow, h);
    sim->schedule_at(14, EventKind::kMigration, 9);
    sim->run_until(30);
  }
  ASSERT_EQ(ha.seen.size(), hb.seen.size());
  for (std::size_t i = 0; i < ha.seen.size(); ++i) {
    EXPECT_EQ(ha.seen[i].time, hb.seen[i].time);
    EXPECT_EQ(ha.seen[i].seq, hb.seen[i].seq);
    EXPECT_EQ(ha.seen[i].id, hb.seen[i].id);
    EXPECT_EQ(ha.seen[i].a, hb.seen[i].a);
  }
}

}  // namespace
}  // namespace lazyctrl::sim
