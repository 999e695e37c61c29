// Unit tests for the discrete-event engine and the lcore actor model.

#include <gtest/gtest.h>

#include <vector>

#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), nanoseconds(30));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule_after(nanoseconds(100), tick);
  };
  sim.schedule_after(0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), nanoseconds(400));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(nanoseconds(10), [&] { ++fired; });
  sim.schedule_at(nanoseconds(50), [&] { ++fired; });
  sim.run_until(nanoseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), nanoseconds(20));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(nanoseconds(100));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), nanoseconds(100));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(nanoseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(nanoseconds(5), [] {}), std::logic_error);
}

TEST(Lcore, ChargesBusyCyclesAndReschedules) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    ++iterations;
    return {100, false};  // 100 cycles @1 GHz = 100 ns per iteration
  });
  core.start();
  sim.run_until(microseconds(1));
  // ~10 iterations in 1 us.
  EXPECT_GE(iterations, 9);
  EXPECT_LE(iterations, 11);
  EXPECT_GT(core.busy_cycles(), 0.0);
  EXPECT_EQ(core.idle_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(core.utilization(), 1.0);
}

TEST(Lcore, IdleIterationsChargeIdleCost) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  core.set_idle_poll_cycles(50);
  core.set_poll([](Lcore&) -> PollResult { return {0, false}; });
  core.start();
  sim.run_until(microseconds(1));
  EXPECT_EQ(core.busy_cycles(), 0.0);
  EXPECT_GT(core.idle_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(core.utilization(), 0.0);
}

TEST(Lcore, StopHaltsIterations) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    if (++iterations == 3) core.stop();
    return {10, false};
  });
  core.start();
  sim.run();
  EXPECT_EQ(iterations, 3);
}

TEST(Lcore, ParkAndWake) {
  // A parked lcore idles on its 40 ns grid; wake() makes the next grid
  // point run the real poll.
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  core.set_idle_poll_cycles(40);
  int work = 0;
  std::vector<Picos> served;
  core.set_poll([&](Lcore&) -> PollResult {
    if (work == 0) return PollResult::parked();
    --work;
    served.push_back(sim.now());
    return {10, false};
  });
  core.start();
  sim.run();  // first poll at 0 finds nothing and parks; nothing is awaited
  EXPECT_TRUE(core.parked());
  EXPECT_TRUE(served.empty());
  sim.run_until(nanoseconds(100));  // grid ticks at 40 and 80 ns
  EXPECT_EQ(core.idle_cycles(), 120.0);
  work = 1;
  core.wake();
  sim.run();
  EXPECT_EQ(served, (std::vector<Picos>{nanoseconds(120)}));
  EXPECT_TRUE(core.parked());  // the poll after the busy one parked again
}

TEST(Lcore, RestartAfterStopDoesNotDoubleSchedule) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    ++iterations;
    return {1000, false};
  });
  core.start();
  sim.run_until(nanoseconds(1500));  // ~2 iterations
  core.stop();
  core.start();
  sim.run_until(nanoseconds(4500));
  // After restart, iterations continue at 1 per us; no duplicated stream.
  EXPECT_LE(iterations, 6);
  EXPECT_GE(iterations, 4);
}

}  // namespace
}  // namespace dhl::sim
