// Unit tests for the PCIe DMA engine model (Figure 4's cost structure).

#include <gtest/gtest.h>

#include "dhl/fpga/dma.hpp"

namespace dhl::fpga {
namespace {

DmaBatchPtr make_batch(std::size_t bytes) {
  auto b = std::make_unique<DmaBatch>(0);
  b->append(0, std::vector<std::uint8_t>(bytes - kRecordHeaderBytes, 0x5a),
            nullptr);
  return b;
}

TEST(DmaModel, LatencyGrowsWithSize) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  const Picos small = dma.one_way_latency(64, false);
  const Picos big = dma.one_way_latency(64 * 1024, false);
  EXPECT_LT(small, big);
  // Round trip at 64 B ~ 2 us (Fig 4b).
  EXPECT_NEAR(to_microseconds(2 * small), 2.0, 0.3);
}

TEST(DmaModel, SixKilobyteKneeFig4) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  // Effective throughput = size / occupancy; must be monotone nondecreasing
  // and reach ~42 Gbps at >= 6 KB.
  double prev = 0;
  for (const std::size_t size :
       {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 6144u, 8192u, 65536u}) {
    const double gbps =
        static_cast<double>(size) * 8.0 / to_seconds(dma.occupancy(size)) / 1e9;
    EXPECT_GE(gbps, prev - 1e-9) << size;
    prev = gbps;
  }
  const double at_6k = 6144 * 8.0 / to_seconds(dma.occupancy(6144)) / 1e9;
  const double at_64k = 65536 * 8.0 / to_seconds(dma.occupancy(65536)) / 1e9;
  EXPECT_NEAR(at_6k, 42.0, 1.5);
  EXPECT_NEAR(at_64k, 42.0, 0.5);  // sustained cap
  const double at_64 = 64 * 8.0 / to_seconds(dma.occupancy(64)) / 1e9;
  EXPECT_LT(at_64, 5.0);  // small transfers are overhead-bound
}

TEST(DmaModel, InKernelDriverIsWorse) {
  sim::Simulator sim;
  DmaEngine uio{sim, sim::DmaParams{}, DmaDriver::kUioPoll};
  DmaEngine kern{sim, sim::DmaParams{}, DmaDriver::kInKernel};
  for (const std::size_t size : {64u, 1024u, 6144u, 65536u}) {
    EXPECT_GT(kern.occupancy(size), uio.occupancy(size)) << size;
    EXPECT_GT(kern.one_way_latency(size, false),
              uio.one_way_latency(size, false))
        << size;
  }
  // Fig 4b: in-kernel round trip ~10 ms.
  EXPECT_NEAR(to_milliseconds(2 * kern.one_way_latency(64, false)), 10.0, 1.0);
}

TEST(DmaModel, NumaRemotePenaltyIsSmall) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  const Picos local = dma.one_way_latency(6144, false);
  const Picos remote = dma.one_way_latency(6144, true);
  // Paper IV-A2: ~0.4 us extra round trip, no throughput change.
  EXPECT_NEAR(to_microseconds(2 * (remote - local)), 0.4, 0.05);
  EXPECT_EQ(dma.occupancy(6144), dma.occupancy(6144));
}

TEST(DmaEngine, DeliversBatchesInOrderWithSerialization) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  std::vector<std::pair<Picos, std::size_t>> deliveries;
  dma.set_tx_deliver([&](DmaBatchPtr b) {
    deliveries.emplace_back(sim.now(), b->size_bytes());
  });
  dma.submit_tx(make_batch(6144));
  dma.submit_tx(make_batch(6144));
  dma.submit_tx(make_batch(6144));
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Channel serialization: deliveries spaced by at least the occupancy.
  const Picos occ = dma.occupancy(6144);
  EXPECT_GE(deliveries[1].first - deliveries[0].first, occ);
  EXPECT_GE(deliveries[2].first - deliveries[1].first, occ);
  EXPECT_EQ(dma.tx_transfers(), 3u);
  EXPECT_EQ(dma.tx_bytes(), 3 * 6144u);
}

TEST(DmaEngine, TxAndRxChannelsAreIndependent) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  Picos tx_done = 0, rx_done = 0;
  dma.set_tx_deliver([&](DmaBatchPtr) { tx_done = sim.now(); });
  dma.set_rx_deliver([&](DmaBatchPtr) { rx_done = sim.now(); });
  dma.submit_tx(make_batch(6144));
  dma.submit_rx(make_batch(6144));
  sim.run();
  // Full duplex: both complete at the same one-way latency.
  EXPECT_EQ(tx_done, rx_done);
  EXPECT_EQ(dma.rx_transfers(), 1u);
}

TEST(DmaEngine, MissingDeliverHookIsAnError) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  EXPECT_THROW(dma.submit_tx(make_batch(256)), std::logic_error);
}

/// Fires one dma.completion fault of `kind` on the first RX submit.
class CorruptOnce final : public FaultHook {
 public:
  explicit CorruptOnce(FaultKind kind) : kind_{kind} {}
  std::optional<FaultOutcome> sample(FaultSite site, int) override {
    if (site != FaultSite::kDmaCompletion || fired_) return std::nullopt;
    fired_ = true;
    return FaultOutcome{kind_, 0};
  }
  std::uint64_t rand() override { return 0x9e3779b97f4a7c15ull; }

 private:
  FaultKind kind_;
  bool fired_ = false;
};

/// One host -> FPGA -> host round trip of one batch; returns the transfer
/// observer's events in order and stores whether the batch arrived intact.
std::vector<TransferEvent> round_trip(FaultHook* hook, bool* crc_ok) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  dma.set_fault_hook(hook, 0);
  std::vector<TransferEvent> events;
  const DmaBatch* seen = nullptr;
  dma.set_transfer_observer([&](DmaBatch& b, TransferEvent e) {
    if (seen == nullptr) seen = &b;
    EXPECT_EQ(&b, seen) << "one batch per round trip";
    events.push_back(e);
  });
  // The fabric turns the batch straight around, as the Dispatcher does.
  dma.set_tx_deliver([&](DmaBatchPtr b) {
    EXPECT_EQ(events.size(), 1u) << "observer fires before the TX hook";
    sim.schedule_after(microseconds(1), [&dma, shared = std::make_shared<
                                                   DmaBatchPtr>(std::move(b))] {
      dma.submit_rx(std::move(*shared));
    });
  });
  dma.set_rx_deliver([&](DmaBatchPtr b) {
    EXPECT_EQ(events.size(), 3u) << "observer fires before the RX hook";
    *crc_ok = b->verify_crc();
  });
  dma.submit_tx(make_batch(1024));
  sim.run();
  return events;
}

// The transfer observer is the engine's only tap: exactly one event per
// seam of a round trip, in pipeline order.
TEST(DmaEngine, TransferObserverFiresOncePerSeamInOrder) {
  const std::vector<TransferEvent> want{TransferEvent::kTxDelivered,
                                        TransferEvent::kRxSubmitted,
                                        TransferEvent::kRxDelivered};
  bool crc_ok = false;
  EXPECT_EQ(round_trip(nullptr, &crc_ok), want);
  EXPECT_TRUE(crc_ok);
  // A completion fault corrupts the wire bytes after the RX submit's
  // checksum stamp; the batch still makes exactly the same three crossings.
  for (const FaultKind kind :
       {FaultKind::kCorruptHeader, FaultKind::kTruncateTail}) {
    SCOPED_TRACE(to_string(kind));
    CorruptOnce hook{kind};
    crc_ok = true;
    EXPECT_EQ(round_trip(&hook, &crc_ok), want);
    EXPECT_FALSE(crc_ok);
  }
}

}  // namespace
}  // namespace dhl::fpga
