#pragma once

// Simulated logical CPU cores ("lcores", in DPDK parlance).
//
// DPDK applications are poll-mode: each lcore runs a tight loop that polls
// rings/NIC queues and processes bursts.  We model an lcore as an actor that
// repeatedly invokes a user poll function; the function reports how many CPU
// cycles that iteration consumed, and the lcore re-schedules itself that many
// cycles later.  Iterations that find no work charge a small idle-poll cost,
// which is what dedicating a core to polling actually costs in DPDK.
//
// Busy vs idle cycles are tracked separately so experiments can report CPU
// utilization per core, mirroring the paper's core-count accounting (Table IV).
//
// Parking.  The modeled core still spins, but the simulator need not execute
// every empty poll.  A poll that finds no work, and whose work can only
// arrive through queues it has armed (Simulator::arm, doorbell.hpp) or at a
// deadline, returns PollResult::parked().  The lcore then idles on its
// *ghost grid*: the points t0 + k * idle_dt where its idle polls would have
// run.  Each grid tick charges the idle-poll cycles and reserves the next
// sequence number as the idle poll's self-reschedule did, but does not call
// the poll.  The first tick after a doorbell rang, or at or after the
// deadline, runs the real poll with that tick's key.  Busy/idle cycles,
// utilization and every tie with other events are therefore identical to a
// spinning core.  In Debug builds each skipped tick still calls the poll
// and checks that it found no work, so a missing doorbell fails loudly.

#include <functional>
#include <string>
#include <utility>

#include "dhl/common/check.hpp"
#include "dhl/common/units.hpp"
#include "dhl/sim/doorbell.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::sim {

/// Result of one poll iteration.
struct PollResult {
  /// CPU cycles consumed by this iteration.  0 means "no work found"; the
  /// lcore then charges its idle-poll cost instead.
  double cycles = 0;
  /// True: no work can reach this poll except through the doorbells it
  /// armed or at `deadline`, so the lcore idles on its ghost grid until
  /// one of them fires.  Only a poll whose idle iterations have no side
  /// effect may park.
  bool park = false;
  /// With `park`: the first virtual time at which the poll has work that no
  /// doorbell announces (e.g. a batch timeout).
  Picos deadline = kNoDeadline;

  /// An idle iteration that parks until a doorbell or `deadline`.
  static PollResult parked(Picos deadline = kNoDeadline) {
    return {0, true, deadline};
  }
};

class Lcore final : public Simulator::Ghost {
 public:
  using PollFn = std::function<PollResult(Lcore&)>;

  Lcore(Simulator& simulator, std::string name, Frequency freq, int socket)
      : sim_{simulator}, name_{std::move(name)}, freq_{freq}, socket_{socket} {}
  ~Lcore() { stop(); }

  const std::string& name() const { return name_; }
  Frequency frequency() const { return freq_; }
  int socket() const { return socket_; }
  Simulator& simulator() { return sim_; }

  void set_poll(PollFn fn) { poll_ = std::move(fn); }

  /// Cycles charged for an iteration that finds no work.
  void set_idle_poll_cycles(double cycles) { idle_poll_cycles_ = cycles; }

  /// Begin the poll loop.  Requires set_poll() to have been called.
  void start() {
    DHL_CHECK_MSG(static_cast<bool>(poll_), "lcore " << name_ << " has no poll fn");
    if (running_) return;
    running_ = true;
    ++epoch_;  // invalidate any event left over from a previous start/stop
    schedule_next(0);
  }

  /// Halt the poll loop; a parked lcore leaves the ghost grid, and start()
  /// re-anchors it at the current time.
  void stop() {
    running_ = false;
    ++epoch_;
    if (parked_) {
      sim_.unpark(*this);
      parked_ = false;
    }
    wake_.disarm_all();
    wake_.clear();
  }
  bool running() const { return running_; }
  bool parked() const { return parked_; }

  /// What a doorbell does: a parked lcore runs its real poll at its next
  /// grid tick.
  void wake() { wake_.raise(); }

  double busy_cycles() const { return busy_cycles_; }
  double idle_cycles() const { return idle_cycles_; }
  double utilization() const {
    const double total = busy_cycles_ + idle_cycles_;
    return total > 0 ? busy_cycles_ / total : 0.0;
  }
  void reset_accounting() { busy_cycles_ = idle_cycles_ = 0; }

 private:
  void schedule_next(Picos delay) {
    const std::uint64_t epoch = epoch_;
    sim_.schedule_after(delay, [this, epoch] {
      if (!running_ || epoch != epoch_) return;
      iterate();
    });
  }

  PollResult call_poll() {
    struct Polling {  // restores the outer flag, also when the poll throws
      WakeFlag*& slot;
      WakeFlag* outer;
      ~Polling() { slot = outer; }
    } polling{sim_.polling_, std::exchange(sim_.polling_, &wake_)};
    return poll_(*this);
  }

  void iterate() {
    const std::uint64_t epoch = epoch_;
    wake_.clear();  // this poll sees every push rung so far
    const PollResult r = call_poll();
    double cycles = r.cycles;
    if (cycles <= 0) {
      cycles = idle_poll_cycles_;
      idle_cycles_ += cycles;
    } else {
      busy_cycles_ += cycles;
    }
    if (r.park && running_ && epoch == epoch_) {
      deadline_ = r.deadline;
      idle_dt_ = freq_.cycles(idle_poll_cycles_);
      parked_ = true;
      sim_.park(*this, sim_.now() + freq_.cycles(cycles));
      return;
    }
    schedule_next(freq_.cycles(cycles));
  }

  bool tick() override {
    if (wake_.raised() || sim_.now() >= deadline_) {
      sim_.unpark(*this);
      parked_ = false;
      iterate();
      return true;
    }
    idle_cycles_ += idle_poll_cycles_;
#ifndef NDEBUG
    // Audit the skipped poll: it must find no work and schedule nothing.
    const std::uint64_t issued = sim_.issued();
    const PollResult r = call_poll();
    DHL_CHECK_MSG(r.cycles <= 0 && r.park && r.deadline == deadline_ &&
                      sim_.issued() == issued,
                  "lcore " << name_ << " found work while parked: a push "
                           "into a queue it polls rang no doorbell");
#endif
    sim_.advance(*this, idle_dt_);
    return false;
  }

  bool awaited() const override {
    return wake_.raised() || deadline_ != kNoDeadline;
  }

  Simulator& sim_;
  std::string name_;
  Frequency freq_;
  int socket_;
  PollFn poll_;
  double idle_poll_cycles_ = 40;
  double busy_cycles_ = 0;
  double idle_cycles_ = 0;
  bool running_ = false;
  bool parked_ = false;
  std::uint64_t epoch_ = 0;
  /// Raised by the doorbells this lcore's poll armed.
  WakeFlag wake_;
  /// While parked: grid spacing and the poll's deadline.
  Picos idle_dt_ = 0;
  Picos deadline_ = kNoDeadline;
};

}  // namespace dhl::sim
