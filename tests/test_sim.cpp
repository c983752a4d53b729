#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"

namespace harmony::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(300, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulation, SameInstantFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  SimTime inner_time = -1;
  sim.schedule(10, [&] {
    sim.schedule(5, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, 15);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  SimTime t = -1;
  sim.schedule(100, [&] {
    sim.schedule(-50, [&] { t = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(t, 100);
}

TEST(Simulation, ScheduleAtPastThrows) {
  Simulation sim;
  sim.schedule(100, [&] {
    EXPECT_THROW(sim.schedule_at(50, [] {}), CheckError);
  });
  sim.run();
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  auto h = sim.schedule(10, [&] { ran = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, CancelAfterRunIsSafe) {
  Simulation sim;
  auto h = sim.schedule(10, [] {});
  sim.run();
  h.cancel();  // no-op, no crash
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i * 100, [&] { ++count; });
  }
  sim.run_until(450);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 450);
  sim.run();
  EXPECT_EQ(count, 10);

  // Cancelling every event a horizon left queued drains the queue without
  // running one: the clock stays at that horizon.
  auto late = sim.schedule(100, [&] { ++count; });
  sim.run_until(1050);
  EXPECT_EQ(sim.now(), 1050);
  late.cancel();
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), 1050);
}

TEST(Simulation, EventsProcessedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulation, DeterministicRngForks) {
  Simulation a(99), b(99);
  Rng ra = a.fork_rng(5), rb = b.fork_rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ra.next(), rb.next());
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> fires;
  timer.start(sim, 100, [&] {
    fires.push_back(sim.now());
    if (fires.size() == 5) timer.stop();
  });
  sim.run();
  ASSERT_EQ(fires.size(), 5u);
  EXPECT_EQ(fires.front(), 100);
  EXPECT_EQ(fires.back(), 500);
}

TEST(PeriodicTimer, StopPreventsFurtherFires) {
  Simulation sim;
  PeriodicTimer timer;
  int fires = 0;
  timer.start(sim, 10, [&] { ++fires; });
  sim.schedule(35, [&] { timer.stop(); });
  sim.run();
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimer, StopFromInsideCallbackStopsCleanly) {
  // The callback runs inside the timer's own event; stop() from there must
  // not re-arm, must not crash, and must leave the timer restartable-idle.
  Simulation sim;
  PeriodicTimer timer;
  int fires = 0;
  timer.start(sim, 50, [&] {
    ++fires;
    if (fires == 2) timer.stop();
  });
  sim.run();
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(timer.running());
  EXPECT_TRUE(sim.idle());  // no orphaned tick left queued
}

TEST(PeriodicTimer, RestartAfterStop) {
  // A stopped timer must accept a fresh start (with a different period and
  // callback) and tick on the new cadence only.
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> first, second;
  timer.start(sim, 10, [&] {
    first.push_back(sim.now());
    if (first.size() == 2) timer.stop();
  });
  sim.run();
  ASSERT_EQ(first, (std::vector<SimTime>{10, 20}));
  EXPECT_FALSE(timer.running());

  timer.start(sim, 25, [&] {
    second.push_back(sim.now());
    if (second.size() == 3) timer.stop();
  });
  EXPECT_TRUE(timer.running());
  sim.run();
  EXPECT_EQ(second, (std::vector<SimTime>{45, 70, 95}));
  EXPECT_TRUE(first.size() == 2);  // old callback never fired again
}

TEST(PeriodicTimer, StopWhilePendingCancelsTheArmedTick) {
  // stop() before the first tick fires must cancel the armed event outright:
  // the queue drains with zero fires instead of running a dead tick.
  Simulation sim;
  PeriodicTimer timer;
  int fires = 0;
  timer.start(sim, 100, [&] { ++fires; });
  EXPECT_TRUE(timer.running());
  timer.stop();
  EXPECT_FALSE(timer.running());
  EXPECT_TRUE(sim.idle());  // armed tick cancelled, not left to no-op
  sim.run();
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(sim.now(), 0);
}

TEST(PeriodicTimer, RestartFromInsideCallbackReplacesCadence) {
  // start() from inside the callback (self-reprogramming timers) must cancel
  // the old cadence before arming the new one.
  Simulation sim;
  PeriodicTimer timer;
  std::vector<SimTime> fires;
  timer.start(sim, 10, [&] {
    fires.push_back(sim.now());
    if (fires.size() == 1) {
      timer.start(sim, 40, [&] {
        fires.push_back(sim.now());
        if (fires.size() >= 3) timer.stop();
      });
    }
  });
  sim.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 50, 90}));
}

}  // namespace
}  // namespace harmony::sim
