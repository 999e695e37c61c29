#pragma once

// Producer half of the lcore park handshake (see lcore.hpp).
//
// A poll that finds no work may park its lcore: the lcore then stops
// executing idle polls until a doorbell rings or a deadline passes.  Every
// queue whose consumer may park carries a Doorbell; every push into it
// rings the bell, which raises the WakeFlag of each lcore that parked on
// the queue.  The parked lcore's next grid tick sees the raised flag and
// runs its real poll.
//
// Doorbells and wake flags link both ways and unlink themselves when
// destroyed, so a queue may outlive its consumer lcore or the reverse.
// Single-threaded, like the simulator: a queue shared between threads
// must never be armed.

#include <algorithm>
#include <vector>

namespace dhl::sim {

class Doorbell;

/// Consumer half: a parked lcore's "work may have arrived" flag.
class WakeFlag {
 public:
  WakeFlag() = default;
  WakeFlag(const WakeFlag&) = delete;
  WakeFlag& operator=(const WakeFlag&) = delete;
  ~WakeFlag() { disarm_all(); }

  bool raised() const { return raised_; }
  void raise() { raised_ = true; }
  void clear() { raised_ = false; }

  /// Stop every doorbell armed with this flag from raising it.
  void disarm_all();

 private:
  friend class Doorbell;
  bool raised_ = false;
  std::vector<Doorbell*> bells_;
};

class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;
  ~Doorbell() {
    for (WakeFlag* f : flags_) std::erase(f->bells_, this);
  }

  /// Work was pushed: raise every armed flag.
  void ring() const {
    for (WakeFlag* f : flags_) f->raised_ = true;
  }

  /// Route later rings to `flag` (idempotent).
  void arm(WakeFlag& flag) {
    if (std::find(flags_.begin(), flags_.end(), &flag) != flags_.end()) {
      return;
    }
    flags_.push_back(&flag);
    flag.bells_.push_back(this);
  }

 private:
  friend class WakeFlag;
  std::vector<WakeFlag*> flags_;
};

inline void WakeFlag::disarm_all() {
  for (Doorbell* b : bells_) std::erase(b->flags_, this);
  bells_.clear();
}

}  // namespace dhl::sim
