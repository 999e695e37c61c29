// Parked lcores and the ghost poll grid (sim/lcore.hpp, sim/simulator.hpp).
//
// A parked lcore skips its idle polls but must stay indistinguishable from a
// spinning one on the virtual clock: same grid points, same tie order with
// other events, same idle-cycle sums, same sequence stream.  Every test here
// runs a spinning reference (park requests dropped) next to the parked run
// and compares the two, and pins the grid points a spinning core gives.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dhl/netio/nic.hpp"
#include "dhl/netio/ring.hpp"
#include "dhl/nf/testbed.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::sim {
namespace {

constexpr Frequency kClock = Frequency::gigahertz(1.0);
constexpr double kIdleCycles = 40;  // 40 ns grid at 1 GHz
constexpr Picos kDt = 40'000;

enum class Mode { kSpin, kPark };

/// An idle result: parked on `bell` in kPark mode, a plain idle poll in
/// kSpin mode.
PollResult idle(Simulator& sim, Mode mode, Doorbell& bell,
                Picos deadline = kNoDeadline) {
  if (mode == Mode::kSpin) return {};
  sim.arm(bell);
  return PollResult::parked(deadline);
}

struct Seen {
  std::string core;
  Picos at;
  bool operator==(const Seen&) const = default;
};

struct TieRun {
  std::vector<Seen> seen;
  double idle_a = 0;
  double idle_b = 0;
  std::uint64_t issued = 0;
  std::uint64_t executed = 0;
};

/// Two lcores on aligned 40 ns grids, each consuming its own ring.  At grid
/// point `at` one event pushes into both rings.  `late` schedules that push
/// from an event between the previous two grid points, i.e. after the
/// lcores' previous grid tick reserved the sequence number of their tick
/// at `at`; otherwise it is scheduled up front, before every tick.
TieRun run_tie(Mode mode, Picos at, bool late) {
  Simulator sim;
  netio::Ring<int> ring_a{"a", 8};
  netio::Ring<int> ring_b{"b", 8};
  TieRun out;
  const auto make = [&](const char* name, netio::Ring<int>& ring) {
    auto core = std::make_unique<Lcore>(sim, name, kClock, 0);
    core->set_idle_poll_cycles(kIdleCycles);
    core->set_poll([&sim, &ring, &out, mode, name](Lcore&) -> PollResult {
      int v;
      if (ring.dequeue(v)) {
        out.seen.push_back({name, sim.now()});
        return {100, false};
      }
      return idle(sim, mode, ring.doorbell());
    });
    return core;
  };
  auto a = make("a", ring_a);
  auto b = make("b", ring_b);
  const auto push = [&] {
    ring_a.enqueue(1);
    ring_b.enqueue(2);
  };
  if (late) {
    sim.schedule_at(at - kDt / 2, [&] { sim.schedule_at(at, push); });
  } else {
    sim.schedule_at(at, push);
  }
  a->start();
  b->start();
  sim.run_until(at + 10 * kDt);
  out.idle_a = a->idle_cycles();
  out.idle_b = b->idle_cycles();
  out.issued = sim.issued();
  out.executed = sim.executed();
  return out;
}

TEST(LcorePark, PushScheduledBeforeThePreviousTickIsSeenAtItsGridPoint) {
  const Picos at = 10 * kDt;
  const TieRun spin = run_tie(Mode::kSpin, at, false);
  const TieRun park = run_tie(Mode::kPark, at, false);
  // The push's sequence number precedes both ticks at `at`.
  const std::vector<Seen> expect{{"a", at}, {"b", at}};
  EXPECT_EQ(spin.seen, expect);
  EXPECT_EQ(park.seen, expect);
  EXPECT_EQ(park.idle_a, spin.idle_a);
  EXPECT_EQ(park.idle_b, spin.idle_b);
  EXPECT_EQ(park.issued, spin.issued);
  EXPECT_LT(park.executed, spin.executed);
}

TEST(LcorePark, PushScheduledAfterThePreviousTickIsSeenOneGridPointLater) {
  const Picos at = 10 * kDt;
  const TieRun spin = run_tie(Mode::kSpin, at, true);
  const TieRun park = run_tie(Mode::kPark, at, true);
  // Both ticks at `at` reserved their sequence numbers before the push was
  // scheduled: they miss it, and the next grid point sees it.
  const std::vector<Seen> expect{{"a", at + kDt}, {"b", at + kDt}};
  EXPECT_EQ(spin.seen, expect);
  EXPECT_EQ(park.seen, expect);
  EXPECT_EQ(park.idle_a, spin.idle_a);
  EXPECT_EQ(park.idle_b, spin.idle_b);
  EXPECT_EQ(park.issued, spin.issued);
}

/// One lcore whose poll has work once `deadline` has passed (and never a
/// doorbell).  Returns the time of the first poll that saw the deadline.
Picos run_deadline(Mode mode, Picos deadline, double* idle_cycles,
                   std::uint64_t* issued) {
  Simulator sim;
  Doorbell never;
  Picos fired = 0;
  Lcore core{sim, "d", kClock, 0};
  core.set_idle_poll_cycles(kIdleCycles);
  core.set_poll([&](Lcore&) -> PollResult {
    if (fired == 0 && sim.now() >= deadline) {
      fired = sim.now();
      return {100, false};
    }
    return idle(sim, mode, never, fired == 0 ? deadline : kNoDeadline);
  });
  core.start();
  sim.run_until(deadline + 20 * kDt);
  *idle_cycles = core.idle_cycles();
  *issued = sim.issued();
  return fired;
}

TEST(LcorePark, DeadlineWakesAtTheFirstGridPointAtOrAfterIt) {
  for (const Picos deadline : {Picos{25 * kDt}, Picos{25 * kDt + 7}}) {
    double spin_idle = 0, park_idle = 0;
    std::uint64_t spin_issued = 0, park_issued = 0;
    const Picos spin = run_deadline(Mode::kSpin, deadline, &spin_idle,
                                    &spin_issued);
    const Picos park = run_deadline(Mode::kPark, deadline, &park_idle,
                                    &park_issued);
    const Picos grid = (deadline + kDt - 1) / kDt * kDt;
    EXPECT_EQ(spin, grid);
    EXPECT_EQ(park, grid);
    EXPECT_EQ(park_idle, spin_idle);
    EXPECT_EQ(park_issued, spin_issued);
  }
}

struct RestartRun {
  std::vector<Picos> seen;
  std::size_t parked_after_stop = 0;
  double idle = 0;
  std::uint64_t issued = 0;
};

/// Idle for a while, stop off the grid, restart off the old grid, then
/// receive a push on the new one.
RestartRun run_restart(Mode mode) {
  Simulator sim;
  netio::Ring<int> ring{"r", 8};
  RestartRun out;
  Lcore core{sim, "r", kClock, 0};
  core.set_idle_poll_cycles(kIdleCycles);
  core.set_poll([&](Lcore&) -> PollResult {
    int v;
    if (ring.dequeue(v)) {
      out.seen.push_back(sim.now());
      return {100, false};
    }
    return idle(sim, mode, ring.doorbell());
  });
  core.start();
  sim.run_until(5 * kDt + 3);
  core.stop();
  out.parked_after_stop = sim.parked();
  // Pushed while stopped: seen by the first poll after the restart.
  sim.schedule_at(8 * kDt, [&] { ring.enqueue(1); });
  sim.run_until(20 * kDt + 11);
  core.start();
  // The restart's busy poll (100 ns) anchors the new grid; this push lands
  // on its third point and is scheduled before that point's tick.
  sim.schedule_at(sim.now() + nanoseconds(100) + 3 * kDt,
                  [&] { ring.enqueue(2); });
  sim.run_until(40 * kDt);
  out.idle = core.idle_cycles();
  out.issued = sim.issued();
  return out;
}

TEST(LcorePark, StopDropsTheGhostAndStartReanchorsTheGrid) {
  const RestartRun spin = run_restart(Mode::kSpin);
  const RestartRun park = run_restart(Mode::kPark);
  const Picos restart = 20 * kDt + 11;
  const std::vector<Picos> expect{restart,
                                  restart + nanoseconds(100) + 3 * kDt};
  EXPECT_EQ(spin.seen, expect);
  EXPECT_EQ(park.seen, expect);
  EXPECT_EQ(park.parked_after_stop, 0u);
  EXPECT_EQ(park.idle, spin.idle);
  EXPECT_EQ(park.issued, spin.issued);
}

TEST(LcorePark, RunReturnsOnceNoGhostIsWokenOrDue) {
  Simulator sim;
  netio::Ring<int> ring{"r", 8};
  Picos deadline = 10 * kDt + 5;
  std::vector<Picos> busy;
  Lcore core{sim, "r", kClock, 0};
  core.set_idle_poll_cycles(kIdleCycles);
  core.set_poll([&](Lcore&) -> PollResult {
    int v;
    if (ring.dequeue(v) || sim.now() >= deadline) {
      busy.push_back(sim.now());
      deadline = kNoDeadline;
      return {100, false};
    }
    return idle(sim, Mode::kPark, ring.doorbell(), deadline);
  });
  core.start();
  // A pending deadline keeps run() ticking: the poll fires on the first
  // grid point at or after it, then parks with nothing awaited.
  sim.run();
  EXPECT_EQ(busy, (std::vector<Picos>{11 * kDt}));
  EXPECT_EQ(sim.parked(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
  const Picos quiet = sim.now();
  // Heap empty, nothing woken, no deadline: run() returns at once.
  sim.run();
  EXPECT_EQ(sim.now(), quiet);
  // A push from outside any event wakes the core at its next grid point.
  ring.enqueue(1);
  sim.run();
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_GT(busy[1], quiet);
  EXPECT_EQ((busy[1] - busy[0] - nanoseconds(100)) % kDt, 0u);
}

}  // namespace
}  // namespace dhl::sim

// --- spinning vs parked rig -------------------------------------------------

namespace dhl::runtime {
namespace {

using sim::Lcore;
using sim::Mode;
using sim::PollResult;

/// Per-lcore accounting and per-packet latencies of one rig run.
struct RigRun {
  std::vector<std::pair<std::uint64_t, Picos>> latencies;  // (seq, e2e)
  std::vector<double> idle_cycles;
  std::vector<double> utilization;
  std::uint64_t issued = 0;
  std::uint64_t executed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t timeout_flushes = 0;
};

/// The transfer layer on test-owned lcores (as perfbench drives it) plus a
/// test-owned NF: an ingress core moving NIC frames into the IBQ and an
/// egress core draining the OBQ.  ON/OFF traffic leaves idle stretches and
/// partial batches, so Packer timeouts, NIC, IBQ, completion and OBQ
/// doorbells all fire.  In kSpin mode every poll's park request is
/// cleared, which is exactly the engine before parking.
RigRun run_rig(Mode mode) {
  nf::Testbed tb{nf::TestbedConfig{}};
  DhlRuntime& rt = tb.init_runtime();
  sim::Simulator& sim = tb.sim();
  netio::NicPort* port = tb.add_port("p0", Bandwidth::gbps(10), 0);
  const netio::NfId nf = rt.register_nf("nf", 0);
  const AccHandle handle = rt.search_by_name("loopback", 0);
  for (int i = 0; i < 10 && !rt.acc_ready(handle); ++i) {
    tb.run_for(milliseconds(10));
  }
  EXPECT_TRUE(rt.acc_ready(handle));

  RigRun out;
  std::vector<std::unique_ptr<Lcore>> cores;
  const sim::CpuParams& cpu = tb.timing().cpu;
  const auto add = [&](const std::string& name,
                       std::function<PollResult()> poll) {
    auto core = std::make_unique<Lcore>(sim, name, cpu.core_clock, 0);
    core->set_idle_poll_cycles(cpu.idle_poll_cycles);
    core->set_poll([mode, poll = std::move(poll)](Lcore&) {
      PollResult r = poll();
      if (mode == Mode::kSpin) r.park = false;
      return r;
    });
    core->start();
    cores.push_back(std::move(core));
  };
  for (int s = 0; s < RuntimeConfig{}.num_sockets; ++s) {
    add("tx" + std::to_string(s), [&rt, s] { return rt.packer().poll(s); });
    add("rx" + std::to_string(s),
        [&rt, s] { return rt.distributor().poll(s); });
  }
  std::vector<netio::Mbuf*> burst(32);
  add("in", [&] {
    const std::size_t n = port->rx_burst(burst.data(), burst.size());
    if (n == 0) {
      sim.arm(port->rx_doorbell());
      return PollResult::parked();
    }
    for (std::size_t i = 0; i < n; ++i) {
      burst[i]->set_nf_id(nf);
      burst[i]->set_acc_id(handle.acc_id);
    }
    const double cycles = 100 + 20 * static_cast<double>(n);
    std::vector<netio::Mbuf*> pkts(
        burst.begin(), burst.begin() + static_cast<std::ptrdiff_t>(n));
    sim.schedule_after(cpu.core_clock.cycles(cycles),
                       [&rt, nf, pkts]() mutable {
                         const std::size_t sent =
                             rt.send_packets(nf, pkts.data(), pkts.size());
                         for (std::size_t i = sent; i < pkts.size(); ++i) {
                           pkts[i]->release();
                         }
                       });
    return PollResult{cycles};
  });
  netio::MbufRing& obq = rt.get_private_obq(nf);
  std::vector<netio::Mbuf*> drained(32);
  add("out", [&] {
    const std::size_t n = obq.dequeue_burst({drained.data(), drained.size()});
    if (n == 0) {
      sim.arm(obq.doorbell());
      return PollResult::parked();
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.latencies.emplace_back(drained[i]->seq(),
                                 sim.now() - drained[i]->rx_timestamp());
      drained[i]->release();
    }
    out.delivered += n;
    return PollResult{50 + 10 * static_cast<double>(n)};
  });

  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  traffic.seed = 7;
  // 30% of line rate in 40 us ON/OFF bursts.
  port->start_traffic(traffic, 0.3, microseconds(40));
  tb.run_for(microseconds(300));
  // A TX core stopped and restarted off its grid mid-run.
  cores[0]->stop();
  tb.run_for(microseconds(7) + 3);
  cores[0]->start();
  tb.run_for(microseconds(400));
  port->stop_traffic();
  tb.run_for(microseconds(200));

  for (const auto& c : cores) {
    out.idle_cycles.push_back(c->idle_cycles());
    out.utilization.push_back(c->utilization());
  }
  out.issued = sim.issued();
  out.executed = sim.executed();
  out.timeout_flushes =
      rt.telemetry().metrics.counter("dhl.runtime.flush_timeout_batches")
          ->value();
  return out;
}

TEST(LcorePark, ParkedRigMatchesSpinningRigBitForBit) {
  const RigRun spin = run_rig(Mode::kSpin);
  const RigRun park = run_rig(Mode::kPark);
  ASSERT_GT(spin.delivered, 400u);
  ASSERT_GT(spin.timeout_flushes, 0u);  // the Packer deadline path ran
  EXPECT_EQ(park.timeout_flushes, spin.timeout_flushes);
  EXPECT_EQ(park.delivered, spin.delivered);
  EXPECT_EQ(park.latencies, spin.latencies);
  EXPECT_EQ(park.idle_cycles, spin.idle_cycles);
  EXPECT_EQ(park.utilization, spin.utilization);
  EXPECT_EQ(park.issued, spin.issued);
  // The point of parking: far fewer executed events for the same run.
  EXPECT_LT(park.executed * 3, spin.executed);
}

}  // namespace
}  // namespace dhl::runtime
