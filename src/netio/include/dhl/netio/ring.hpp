#pragma once

// Lockless bounded FIFO ring, safe for any number of producers and consumers.
//
// The paper leans on DPDK's "lockless multi-producer multi-consumer ring
// library" (section III-A) for every buffer queue in the system: the shared
// IBQ is multi-producer single-consumer, private OBQs are single-producer
// single-consumer (section IV-A4).  One algorithm serves every shape: each
// slot carries a sequence number (Vyukov's bounded MPMC queue), extended to
// bursts.
//
//   - A slot at position p is free for the producer of p when seq == p, and
//     holds p's value for the consumer when seq == p + 1.  The consumer
//     releases it for the next lap by storing seq = p + size.
//   - Enqueue counts the consecutive free slots from the producer position
//     (at most the room left under capacity), claims them with one CAS on
//     that position, writes them and publishes each with a release store.
//     Dequeue is the mirror image.
//
// rte_ring instead publishes a shared tail in reservation order, so a thread
// preempted between its head CAS and its tail store stalls every later
// thread (DPDK's documented non-preemptible MP/MC mode).  Here a preempted
// thread holds only the slots it claimed; nobody ever waits for another
// thread.  A slot still held by a preempted peer reads as full / empty.
//
// Positions and sequence numbers are 64-bit, so they never wrap and no ABA
// argument is needed.  Capacity is size-1, as in rte_ring, and a burst takes
// what fits in FIFO order, so the NIC, IBQ and OBQ accept and refuse the same
// packets an rte_ring of that size would: virtual-time results do not depend
// on the ring algorithm.
//
// Each ring carries a doorbell (sim/doorbell.hpp): a successful enqueue
// rings it, which wakes a simulated consumer lcore parked on the ring.  A
// ring shared between threads is never armed, so its doorbell stays silent.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dhl/common/check.hpp"
#include "dhl/sim/doorbell.hpp"

namespace dhl::netio {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "Ring elements are copied raw, DPDK-style");

 public:
  /// `size` must be a power of two >= 2.  Usable capacity is size-1.
  Ring(std::string name, std::uint32_t size)
      : name_{std::move(name)}, size_{size}, mask_{size - 1}, slots_(size) {
    DHL_CHECK_MSG(size >= 2 && std::has_single_bit(size),
                  "ring size must be a power of two >= 2");
    for (std::uint32_t i = 0; i < size; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  const std::string& name() const { return name_; }
  std::uint32_t capacity() const { return size_ - 1; }

  /// Elements currently stored (exact single-threaded, approximate under
  /// concurrency).
  std::uint32_t count() const {
    const std::uint64_t cons = cons_pos_.load(std::memory_order_relaxed);
    const std::uint64_t prod = prod_pos_.load(std::memory_order_relaxed);
    return static_cast<std::uint32_t>(prod - cons);
  }
  bool empty() const { return count() == 0; }
  bool full() const { return count() >= capacity(); }

  /// Rung by every enqueue that stores at least one element.
  sim::Doorbell& doorbell() { return doorbell_; }

  /// Enqueue as many of `items` as fit.  Returns count enqueued.
  std::size_t enqueue_burst(std::span<const T> items) {
    std::uint64_t pos = prod_pos_.load(std::memory_order_relaxed);
    std::uint64_t n;
    for (;;) {
      // cons <= prod always holds, so a "negative" fill means `pos` is stale.
      const std::uint64_t used = pos - cons_pos_.load(std::memory_order_relaxed);
      if (static_cast<std::int64_t>(used) < 0) {
        pos = prod_pos_.load(std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t room = used < capacity() ? capacity() - used : 0;
      const std::uint64_t want = std::min<std::uint64_t>(items.size(), room);
      std::uint64_t seq = pos;
      for (n = 0; n < want; ++n) {
        seq = slot(pos + n).seq.load(std::memory_order_acquire);
        if (seq != pos + n) break;
      }
      if (n == 0) {
        // Full, or the slot's last-lap consumer has not released it yet.
        if (want == 0 || static_cast<std::int64_t>(seq - pos) < 0) return 0;
        pos = prod_pos_.load(std::memory_order_relaxed);  // another producer won
        continue;
      }
      if (prod_pos_.compare_exchange_weak(pos, pos + n,
                                          std::memory_order_relaxed)) {
        break;
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      Slot& s = slot(pos + i);
      s.value = items[i];
      s.seq.store(pos + i + 1, std::memory_order_release);
    }
    doorbell_.ring();
    return n;
  }

  bool enqueue(const T& item) { return enqueue_burst({&item, 1}) == 1; }

  /// Dequeue up to out.size() elements.  Returns count dequeued.
  std::size_t dequeue_burst(std::span<T> out) {
    std::uint64_t pos = cons_pos_.load(std::memory_order_relaxed);
    std::uint64_t n;
    for (;;) {
      std::uint64_t seq = pos + 1;
      for (n = 0; n < out.size(); ++n) {
        seq = slot(pos + n).seq.load(std::memory_order_acquire);
        if (seq != pos + n + 1) break;
      }
      if (n == 0) {
        // Empty, or the slot's producer has not published it yet.
        if (out.empty() || static_cast<std::int64_t>(seq - (pos + 1)) < 0) {
          return 0;
        }
        pos = cons_pos_.load(std::memory_order_relaxed);  // another consumer won
        continue;
      }
      if (cons_pos_.compare_exchange_weak(pos, pos + n,
                                          std::memory_order_relaxed)) {
        break;
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      Slot& s = slot(pos + i);
      out[i] = s.value;
      s.seq.store(pos + i + size_, std::memory_order_release);
    }
    return n;
  }

  bool dequeue(T& out) { return dequeue_burst({&out, 1}) == 1; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq;
    T value;
  };

  Slot& slot(std::uint64_t pos) { return slots_[pos & mask_]; }

  std::string name_;
  std::uint32_t size_;
  std::uint64_t mask_;
  std::vector<Slot> slots_;
  sim::Doorbell doorbell_;

  alignas(64) std::atomic<std::uint64_t> prod_pos_{0};
  alignas(64) std::atomic<std::uint64_t> cons_pos_{0};
};

class Mbuf;
/// The queue type DHL actually moves packets through.
using MbufRing = Ring<Mbuf*>;

}  // namespace dhl::netio
