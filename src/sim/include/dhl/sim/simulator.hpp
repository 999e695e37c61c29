#pragma once

// Discrete-event simulation engine.
//
// All DHL experiments run in virtual time: components schedule callbacks at
// picosecond timestamps, and the engine executes them in (time, insertion
// sequence) order.  Using an insertion sequence as a tiebreaker makes runs
// bit-for-bit reproducible regardless of heap implementation details.
//
// Parked lcores (lcore.hpp) are not heap events.  Each one keeps a *ghost*:
// the key (time, sequence number) of its next idle-poll grid point, held
// outside the heap.  step() and run_until() merge the lowest ghost with the
// heap top by the same (time, seq) order, so a ghost tick lands exactly
// where the spinning lcore's idle-poll event would have, and the sequence
// stream -- and with it every same-picosecond tie -- is unchanged.  Only
// executed() counts fewer events.
//
// The engine is deliberately single-threaded: determinism is worth more to a
// reproduction study than parallel speedup, and the hot loops (per-burst
// packet processing) amortize the event overhead.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "dhl/common/check.hpp"
#include "dhl/common/units.hpp"
#include "dhl/sim/doorbell.hpp"

namespace dhl::sim {

/// Deadline of a parked lcore that only a doorbell can wake.
inline constexpr Picos kNoDeadline = std::numeric_limits<Picos>::max();

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// An idle-poll grid kept outside the event heap (an Lcore parks on one).
  /// The simulator owns the key of its next tick; the owner decides what a
  /// tick does.
  class Ghost {
   public:
    Ghost(const Ghost&) = delete;
    Ghost& operator=(const Ghost&) = delete;

   protected:
    Ghost() = default;
    ~Ghost() = default;
    /// Runs at the ghost's key.  Returns true when the tick ran real work
    /// (counted in executed()), false for a skipped idle poll.
    virtual bool tick() = 0;
    /// True while a future tick is bound to run real work (woken, or a
    /// deadline pending): run() keeps ticking until none is.
    virtual bool awaited() const = 0;

   private:
    friend class Simulator;
    Picos time_ = 0;
    std::uint64_t seq_ = 0;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Picos now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t` (must be >= now()).
  void schedule_at(Picos t, Callback cb) {
    DHL_CHECK_MSG(t >= now_, "cannot schedule event in the past");
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }

  /// Schedule `cb` to run `dt` after the current time.
  void schedule_after(Picos dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }

  /// Route `bell` to the lcore whose poll is running, so the next push
  /// wakes it once it parks.  A no-op outside an lcore's poll.
  void arm(Doorbell& bell) {
    if (polling_ != nullptr) bell.arm(*polling_);
  }

  /// Execute one event or ghost tick.  Returns false once nothing can
  /// happen any more: the heap is empty and no ghost is woken or waiting
  /// for a deadline.
  bool step() {
    if (Ghost* g = ghost_first()) {
      if (queue_.empty() && !any_awaited()) return false;
      tick(*g);
      return true;
    }
    if (queue_.empty()) return false;
    run_top();
    return true;
  }

  /// Run until step() returns false.
  void run() {
    while (step()) {
    }
  }

  /// Run all events and ghost ticks with time <= `t`, then set now() to `t`.
  void run_until(Picos t) {
    for (;;) {
      if (Ghost* g = ghost_first()) {
        if (g->time_ > t) break;
        tick(*g);
      } else if (!queue_.empty() && queue_.top().time <= t) {
        run_top();
      } else {
        break;
      }
    }
    if (t > now_) now_ = t;
  }

  /// Heap events waiting to run (parked lcores are not counted).
  std::size_t pending() const { return queue_.size(); }
  /// Lcores parked on the ghost grid.
  std::size_t parked() const { return ghosts_.size(); }
  /// Events and woken ghost ticks executed; skipped idle polls are not.
  std::uint64_t executed() const { return executed_; }
  /// Sequence numbers handed out so far (one per scheduled event and one
  /// per ghost tick): two runs with equal streams tie-break identically.
  std::uint64_t issued() const { return next_seq_; }

 private:
  friend class Lcore;

  /// Put `g` on the ghost grid with its next tick at `t`, reserving that
  /// tick's sequence number now -- exactly as scheduling an event at `t`
  /// would.
  void park(Ghost& g, Picos t) {
    DHL_CHECK_MSG(t >= now_, "cannot park a ghost in the past");
    g.time_ = t;
    g.seq_ = next_seq_++;
    ghosts_.push_back(&g);
  }

  /// Move a parked ghost's next tick `dt` after its current one (called by
  /// its tick), reserving the sequence number now.
  void advance(Ghost& g, Picos dt) {
    g.time_ += dt;
    g.seq_ = next_seq_++;
  }

  /// Take `g` off the ghost grid.
  void unpark(Ghost& g) { std::erase(ghosts_, &g); }

  struct Event {
    Picos time;
    std::uint64_t seq;
    Callback callback;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// The lowest ghost by (time, seq) when it comes before the heap top,
  /// else null.
  Ghost* ghost_first() const {
    Ghost* low = nullptr;
    for (Ghost* g : ghosts_) {
      if (low == nullptr || g->time_ < low->time_ ||
          (g->time_ == low->time_ && g->seq_ < low->seq_)) {
        low = g;
      }
    }
    if (low == nullptr || queue_.empty()) return low;
    const Event& e = queue_.top();
    const bool first =
        low->time_ != e.time ? low->time_ < e.time : low->seq_ < e.seq;
    return first ? low : nullptr;
  }

  bool any_awaited() const {
    return std::any_of(ghosts_.begin(), ghosts_.end(),
                       [](const Ghost* g) { return g->awaited(); });
  }

  void tick(Ghost& g) {
    now_ = g.time_;
    if (g.tick()) ++executed_;
  }

  void run_top() {
    // priority_queue::top returns const&; the callback must be moved out
    // before pop, so copy the POD fields and steal the callback.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ++executed_;
    ev.callback();
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<Ghost*> ghosts_;
  /// Wake flag of the lcore whose poll is running (set by Lcore).
  WakeFlag* polling_ = nullptr;
  Picos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dhl::sim
