#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace replidb::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.Schedule(5, [&order, i] { order.push_back(i); });
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    EXPECT_EQ(sim.Now(), 10);
    sim.Schedule(5, [&] {
      EXPECT_EQ(sim.Now(), 15);
      ++fired;
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  sim.Cancel(id);  // Must not crash or affect later events.
  sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StaleCancelsLeaveNoStateAndPendingCountIsExact) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.RunFor(20);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Cancel(id);  // Already fired.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Cancel(id + 1);       // Never issued.
  sim.Cancel(~EventId{0});  // Out of range.
  EXPECT_EQ(sim.pending_events(), 0u);

  // The fired event's slot is reused: its stale id must not cancel the
  // new event that now occupies the slot.
  EventId next = sim.Schedule(10, [&] { ++fired; });
  EXPECT_NE(next, id);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Cancel(next);
  sim.Cancel(next);  // Double cancel counts once.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelFromInsideTheFiringEventIsANoOp) {
  // The controller's timeout path cancels its own timer while it fires.
  Simulator sim;
  int fired = 0;
  EventId self = 0;
  self = sim.Schedule(5, [&] {
    ++fired;
    sim.Cancel(self);
    sim.Schedule(5, [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, PendingCountTracksMixedCancelsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(
        sim.Schedule(100 - i % 5, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 3) sim.Cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(sim.pending_events(), 13u);
  sim.RunUntil(97);
  EXPECT_EQ(sim.pending_events(), 8u);
  for (EventId id : ids) sim.Cancel(id);  // Fired, cancelled or pending.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  // (when, seq) order among the survivors that ran before the cancels.
  std::vector<int> expected;
  for (int when = 96; when <= 97; ++when) {
    for (int i = 0; i < 20; ++i) {
      if (i % 3 != 0 && 100 - i % 5 == when) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.Now(), 12345);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.RunUntil(100);
  int fired = 0;
  sim.Schedule(-50, [&] {
    EXPECT_EQ(sim.Now(), 100);
    ++fired;
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // Resumes with remaining events.
  EXPECT_EQ(fired, 2);
}

// Counts copies of itself; moves are free.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* c, int* k) : copies(c), calls(k) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), calls(o.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) = default;
  void operator()() const { ++*calls; }
};

TEST(SimulatorTest, DispatchMovesCallablesAndNeverCopiesThem) {
  Simulator sim;
  int copies = 0, calls = 0;
  for (int i = 0; i < 8; ++i) sim.Schedule(i, CopyCounter(&copies, &calls));
  sim.RunUntil(3);
  sim.Step();
  sim.Run();
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(copies, 0) << "the pop must move the callable out of its slot";
}

TEST(SimulatorTest, CallableOutlivesSlotGrowthDuringItsOwnRun) {
  // The running callable must not live in the slot table: scheduling
  // from inside it grows (reallocates) the table and reuses its slot.
  Simulator sim;
  auto payload = std::make_shared<std::string>("captured");
  std::string seen;
  int fired = 0;
  sim.Schedule(1, [&, payload] {
    for (int i = 0; i < 1000; ++i) sim.Schedule(1, [&] { ++fired; });
    seen = *payload;
  });
  sim.Run();
  EXPECT_EQ(seen, "captured");
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(payload.use_count(), 1) << "fired callables are destroyed";
}

TEST(SimulatorTest, CancelledCallableIsDestroyedWhenItsEventPops) {
  Simulator sim;
  auto payload = std::make_shared<int>(0);
  EventId id = sim.Schedule(10, [payload] { ++*payload; });
  sim.Schedule(20, [] {});
  sim.Cancel(id);
  EXPECT_EQ(payload.use_count(), 2) << "cancel leaves the closure queued";
  sim.RunUntil(15);
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(*payload, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(PeriodicTaskTest, FiresEveryPeriod) {
  Simulator sim;
  std::vector<TimePoint> fire_times;
  PeriodicTask task(&sim, 10, [&] { fire_times.push_back(sim.Now()); });
  task.Start();
  sim.RunUntil(55);
  task.Stop();
  EXPECT_EQ(fire_times, (std::vector<TimePoint>{10, 20, 30, 40, 50}));
}

TEST(PeriodicTaskTest, StartAfterCustomDelay) {
  Simulator sim;
  std::vector<TimePoint> fire_times;
  PeriodicTask task(&sim, 10, [&] { fire_times.push_back(sim.Now()); });
  task.StartAfter(0);
  sim.RunUntil(25);
  task.Stop();
  EXPECT_EQ(fire_times, (std::vector<TimePoint>{0, 10, 20}));
}

TEST(PeriodicTaskTest, StopFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(&sim, 10, [&] {
    if (++count == 3) task.Stop();
  });
  task.Start();
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, DoubleStartIsNoop) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(&sim, 10, [&] { ++count; });
  task.Start();
  task.Start();
  sim.RunUntil(35);
  task.Stop();
  EXPECT_EQ(count, 3);
}

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
}

}  // namespace
}  // namespace replidb::sim
