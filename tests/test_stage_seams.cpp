// The stage seam (DESIGN.md section 3.4): every kStageSeams row that marks
// a ledger stage and closes a stage-latency interval must agree with the
// ledger -- the interval's sample count equals the ledger's entries into
// that stage, or trails them for the on-delivery rows (ibq_wait, fallback),
// which sample delivered packets only.  Checked on a clean run and on the
// three fault paths that move packets off the straight pipeline: a corrupt
// completion, a lost doorbell redirected to another replica, and a
// quarantined function served by its software fallback.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FaultKind;
using fpga::FaultSite;
using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct Harness {
  sim::Simulator sim;
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  std::vector<std::unique_ptr<FpgaDevice>> fpgas;
  std::unique_ptr<DhlRuntime> rt;
  std::unique_ptr<FaultInjector> inj;
  MbufPool pool{"stage-seams", 8192, 2048, 0};
  netio::NfId nf = 0;
  AccHandle acc;

  /// `replicas` loopback replicas, one per FPGA, transfer cores started.
  explicit Harness(int replicas = 1) {
    std::vector<FpgaDevice*> ptrs;
    for (int i = 0; i < replicas; ++i) {
      fpga::FpgaDeviceConfig fc;
      fc.fpga_id = i;
      fc.name = "fpga" + std::to_string(i);
      fc.telemetry = tel;
      fpgas.push_back(std::make_unique<FpgaDevice>(sim, fc));
      ptrs.push_back(fpgas.back().get());
    }
    RuntimeConfig cfg;
    cfg.telemetry = tel;
    rt = std::make_unique<DhlRuntime>(
        sim, cfg, accel::standard_module_database(nullptr), std::move(ptrs));
    nf = rt->register_nf("nf0", 0);
    acc = rt->search_by_name("loopback", 0);
    if (replicas > 1) {
      EXPECT_EQ(rt->replicate("loopback", static_cast<std::size_t>(replicas)),
                static_cast<std::size_t>(replicas));
    }
    sim.run_until(sim.now() + milliseconds(20));
    EXPECT_TRUE(rt->acc_ready(acc));
    rt->start();
    inj = std::make_unique<FaultInjector>(sim, rt->telemetry(), /*seed=*/3);
    rt->set_fault_injector(inj.get());
  }

  ~Harness() { rt->set_fault_injector(nullptr); }

  /// `n` RX-timestamped packets in one burst, then `dt` of virtual time
  /// and a full drain of the NF's OBQ.
  void send(std::size_t n, Picos dt = milliseconds(1)) {
    std::vector<Mbuf*> pkts;
    for (std::size_t i = 0; i < n; ++i) {
      Mbuf* m = pool.alloc();
      m->assign(std::vector<std::uint8_t>(200, 0x42));
      m->set_nf_id(nf);
      m->set_acc_id(acc.acc_id);
      m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
      pkts.push_back(m);
    }
    ASSERT_EQ(rt->send_packets(nf, pkts.data(), n), n);
    sim.run_until(sim.now() + dt);
    Mbuf* out[64];
    while (const std::size_t got = DhlRuntime::receive_packets(
               rt->get_private_obq(nf), out, 64)) {
      for (std::size_t i = 0; i < got; ++i) out[i]->release();
    }
  }

  std::uint64_t samples(telemetry::Stage stage) const {
    return tel->stages.stage(stage).count();
  }

  /// The cross-check itself; returns the audit for case-specific checks.
  LedgerAudit expect_seams_agree() const {
    const LedgerAudit audit = rt->ledger().audit();
    EXPECT_TRUE(audit.clean()) << audit.to_string();
    for (const StageSeamRow& row : kStageSeams) {
      if (row.ledger == kNoLedgerStage || row.closes == kNoInterval) continue;
      SCOPED_TRACE(row.name);
      const std::uint64_t entries =
          audit.stage_entries[static_cast<std::size_t>(row.ledger)];
      const std::uint64_t count = samples(row.closes);
      if (row.on_delivery) {
        EXPECT_LE(count, entries) << telemetry::to_string(row.closes);
      } else {
        EXPECT_EQ(count, entries) << telemetry::to_string(row.closes);
      }
    }
    EXPECT_EQ(rt->in_flight(), 0u);
    EXPECT_EQ(pool.in_use(), 0u);
    return audit;
  }
};

TEST(StageSeams, CleanRunMatchesLedger) {
  if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out";
  Harness h;
  h.send(100);
  h.send(7);
  const LedgerAudit audit = h.expect_seams_agree();
  EXPECT_EQ(audit.delivered, 107u);
  // Nothing dropped and nothing took the side path: the on-delivery rows
  // are exact too.
  EXPECT_EQ(h.samples(telemetry::Stage::kIbqWait), 107u);
  EXPECT_EQ(h.samples(telemetry::Stage::kFallback), 0u);
}

// A corrupted completion is dropped whole at the Distributor's CRC gate:
// it crossed dma.rx (counted on both sides) but never reached the
// Distributor or an OBQ.
TEST(StageSeams, CorruptCompletionMatchesLedger) {
  if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out";
  Harness h;
  h.inj->add_rule({.site = FaultSite::kDmaCompletion,
                   .kind = FaultKind::kCorruptHeader,
                   .max_count = 1});
  h.send(40);
  h.send(40);
  const LedgerAudit audit = h.expect_seams_agree();
  const std::uint64_t crc = audit.dropped[static_cast<std::size_t>(
      LedgerDrop::kCrc)];
  EXPECT_GT(crc, 0u);
  EXPECT_EQ(h.samples(telemetry::Stage::kDmaRx),
            h.samples(telemetry::Stage::kDistributor) + crc);
  EXPECT_EQ(h.samples(telemetry::Stage::kIbqWait), audit.delivered);
}

// Lost doorbells on FPGA 0 exhaust the retry budget and redirect the batch
// to the replica on FPGA 1: retries and the redirect stay inside dma.tx, so
// pack and dma.tx are still counted once per packet.
TEST(StageSeams, SubmitTimeoutRedirectMatchesLedger) {
  if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out";
  Harness h{2};
  h.inj->add_rule({.site = FaultSite::kDmaSubmit,
                   .kind = FaultKind::kSubmitTimeout,
                   .fpga_id = 0,
                   .max_count = 8});
  h.send(24, milliseconds(2));
  h.send(24, milliseconds(2));
  const LedgerAudit audit = h.expect_seams_agree();
  EXPECT_EQ(audit.delivered, 48u);
  EXPECT_GT(h.samples(telemetry::Stage::kRetryBackoff), 0u);
  std::size_t redirects = 0;
  for (const telemetry::FlightEvent& e : h.tel->recorder.recent()) {
    if (e.kind == telemetry::FlightEventKind::kRedirect) ++redirects;
  }
  EXPECT_GT(redirects, 0u);
}

// The only replica is quarantined at its first flush: that batch, and the
// rest of the burst behind it, go down the software fallback (batch and
// per-packet forms), which records fallback -- not ibq_wait -- for each
// delivered packet.
TEST(StageSeams, QuarantineFallbackMatchesLedger) {
  if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out";
  Harness h;
  h.rt->register_fallback(h.nf, "loopback", [](std::span<Mbuf* const>) {});
  h.inj->add_rule({.site = FaultSite::kDevice,
                   .kind = FaultKind::kDeviceUnhealthy,
                   .max_count = 1});
  h.send(60);
  const LedgerAudit audit = h.expect_seams_agree();
  EXPECT_EQ(audit.delivered, 60u);
  EXPECT_EQ(audit.stage_entries[static_cast<std::size_t>(
                LedgerStage::kFallback)],
            60u);
  EXPECT_EQ(h.samples(telemetry::Stage::kFallback), 60u);
  EXPECT_EQ(h.samples(telemetry::Stage::kIbqWait), 0u);
  EXPECT_EQ(h.samples(telemetry::Stage::kEndToEnd), 60u);
}

}  // namespace
}  // namespace dhl::runtime
