#pragma once

// Distributor: the RX half of the transfer layer (paper IV-B1).
//
// One poll loop per NUMA socket: drain the completion queue the DMA engines
// deliver into, decapsulate returned batches, restore payloads/results into
// the parked mbufs, and route each packet to its NF's private OBQ by the
// wire-format nf_id -- never host-side state, so a corrupted tag is caught
// by the isolation machinery instead of leaking across NFs.

#include <deque>
#include <string>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/runtime/batch_pool.hpp"
#include "dhl/runtime/hw_function_table.hpp"
#include "dhl/runtime/runtime_metrics.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::runtime {

class Distributor {
 public:
  /// Initial per-socket completion-ring slots (a power of two); the ring
  /// doubles whenever a delivery finds it full.
  static constexpr std::size_t kInitialCompletionSlots = 1024;
  /// Batches the RX core drains per poll.
  static constexpr std::uint32_t kRxBurst = 8;

  Distributor(sim::Simulator& simulator, const RuntimeConfig& config,
              telemetry::Telemetry& telemetry, RuntimeMetrics& metrics,
              HwFunctionTable& table, std::vector<NfInfo>& nfs,
              BatchPoolSet& pools);

  Distributor(const Distributor&) = delete;
  Distributor& operator=(const Distributor&) = delete;

  /// DMA RX delivery hook: park a returned batch on `socket`'s completion
  /// queue until that socket's RX core drains it.  Batches that fail the
  /// integrity gate (wire_corrupt, CRC mismatch, or structurally invalid
  /// wire bytes) are dropped here as a unit -- parked mbufs released,
  /// dhl.batch.crc_drops counted, replica failure noted -- so a corrupted
  /// transfer can never desynchronize records and mbufs downstream.
  void enqueue_completion(int socket, fpga::DmaBatchPtr batch);

  /// One RX poll iteration for `socket` (runs on that socket's RX lcore).
  sim::PollResult poll(int socket);

  std::size_t completions_pending(int socket) const {
    return sockets_[static_cast<std::size_t>(socket)].pending();
  }

  /// Test hook: identities of the pooled delivery buffers currently parked
  /// on `socket`'s free list.  Pins the recycling behaviour -- steady-state
  /// polling must hand the *same* heap vector back, not allocate per event.
  std::vector<const void*> delivery_buffer_ids(int socket) const {
    const auto& free = sockets_[static_cast<std::size_t>(socket)].free_buffers;
    return {free.begin(), free.end()};
  }

 private:
  /// A packet routed to an NF, delivered after the Distributor cycles
  /// spent on it have elapsed.
  struct Delivery {
    std::size_t nf;
    netio::Mbuf* m;
  };
  /// A pooled delivery buffer.  It names the socket whose free list it
  /// returns to, so the delivery event captures two pointers and fits the
  /// std::function small-object buffer instead of heap-allocating.
  struct DeliveryBuffer {
    std::vector<Delivery> items;
    int socket = 0;
  };

  struct SocketState {
    /// Growable completion ring (power-of-two slots, monotonic head/tail
    /// indices masked on access): the DMA delivery hook and the RX poll
    /// loop touch preallocated slots only.  A delivery that finds the ring
    /// full doubles it in FIFO order, so a completion is never dropped.
    std::vector<fpga::DmaBatchPtr> ring;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    /// Rung by every completion push; wakes the parked RX core.
    sim::Doorbell doorbell;
    /// Every delivery buffer this socket has made (a deque, so addresses
    /// stay put), and the idle ones: the deferred-enqueue event hands its
    /// buffer back here, so steady-state polling never heap-allocates.
    std::deque<DeliveryBuffer> buffers;
    std::vector<DeliveryBuffer*> free_buffers;
    telemetry::Gauge* completions_depth = nullptr;
    std::string rx_track;

    std::size_t pending() const {
      return static_cast<std::size_t>(tail - head);
    }
    fpga::DmaBatchPtr& slot(std::uint64_t i) {
      return ring[i & (ring.size() - 1)];
    }
  };

  DeliveryBuffer* take_buffer(int socket);

  /// Integrity gate: true when the batch's wire bytes are trustworthy --
  /// not flagged corrupt in flight, checksum matches, every record parses,
  /// the record count equals the parked-mbuf count, and no record claims
  /// more payload than its mbuf can hold.
  bool batch_intact(const fpga::DmaBatch& batch) const;
  /// Drop a batch that failed the gate: retire its outstanding bytes, note
  /// the replica failure, drop the parked mbufs at the kCrc site, recycle.
  void drop_corrupt_batch(fpga::DmaBatchPtr batch);

  sim::Simulator& sim_;
  const RuntimeConfig& config_;
  telemetry::Telemetry& telemetry_;
  RuntimeMetrics& metrics_;
  HwFunctionTable& table_;
  std::vector<NfInfo>& nfs_;
  BatchPoolSet& pools_;
  std::vector<SocketState> sockets_;
};

}  // namespace dhl::runtime
