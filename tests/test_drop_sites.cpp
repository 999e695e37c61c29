// The packet-terminal seam (DESIGN.md section 3.4): every drop site's
// registry counter agrees with the ledger's tally for that site, and the
// flight recorder logs real drops only -- one event per drop call, none for
// packets a software fallback served.

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
using telemetry::FlightEventKind;

struct Harness {
  sim::Simulator sim;
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  std::unique_ptr<FpgaDevice> fpga;
  std::unique_ptr<DhlRuntime> rt;
  // Buffers big enough for a record over the 6 KB batch ceiling.
  MbufPool pool{"drop-sites", 8192, 16384, 0};
  AccHandle acc;

  explicit Harness(RuntimeConfig cfg = {}) {
    fpga::FpgaDeviceConfig fc;
    fc.telemetry = tel;
    cfg.telemetry = tel;
    fpga = std::make_unique<FpgaDevice>(sim, fc);
    rt = std::make_unique<DhlRuntime>(sim, cfg,
                                      accel::standard_module_database(nullptr),
                                      std::vector<FpgaDevice*>{fpga.get()});
  }

  ~Harness() { rt->set_fault_injector(nullptr); }

  /// Loads loopback, waits for PR, starts the transfer cores.
  void ready() {
    acc = rt->search_by_name("loopback", 0);
    sim.run_until(sim.now() + milliseconds(40));
    ASSERT_TRUE(rt->acc_ready(acc));
    rt->start();
  }

  /// Sends `n` packets tagged (nf, acc_id) in one burst on `ibq_nf`'s IBQ.
  void send(netio::NfId ibq_nf, netio::NfId nf, netio::AccId acc_id,
            std::size_t n, std::uint32_t len = 100) {
    std::vector<Mbuf*> pkts;
    for (std::size_t i = 0; i < n; ++i) {
      Mbuf* m = pool.alloc();
      m->assign(std::vector<std::uint8_t>(len, 0x42));
      m->set_nf_id(nf);
      m->set_acc_id(acc_id);
      m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
      pkts.push_back(m);
    }
    ASSERT_EQ(rt->send_packets(ibq_nf, pkts.data(), n), n);
  }

  void run(Picos dt = milliseconds(1)) { sim.run_until(sim.now() + dt); }

  std::size_t drain(netio::NfId nf) {
    Mbuf* out[64];
    std::size_t total = 0;
    for (;;) {
      const std::size_t n =
          DhlRuntime::receive_packets(rt->get_private_obq(nf), out, 64);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) out[i]->release();
      total += n;
    }
    return total;
  }

  std::size_t count_events(FlightEventKind kind) const {
    std::size_t n = 0;
    for (const telemetry::FlightEvent& e : tel->recorder.recent()) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
};

// A mixed fault schedule reaches every drop site at least once; afterwards
// each site's counter must equal the ledger's tally for it, and the
// per-tenant drop counters must sum to the ledger's total.
TEST(DropSites, CountersMatchLedgerPerSite) {
  if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out";
  RuntimeConfig cfg;
  cfg.obq_size = 16;  // tiny OBQ: nobody drains during the overflow phase
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const TenantId capped =
      h.rt->register_tenant("capped", {.max_batches_in_flight = 1});
  const netio::NfId capped_nf = h.rt->register_nf("capped.nf", 0, capped);
  h.ready();
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/11};
  h.rt->set_fault_injector(&inj);

  // kUnready: an acc_id nothing is loaded on.
  h.send(nf, nf, static_cast<netio::AccId>(h.acc.acc_id + 1), 4);
  // kOversize: a record over the DMA batch ceiling, no fallback.
  h.send(nf, nf, h.acc.acc_id, 1, 7000);
  // kObq: one unregistered nf_id, then more than the OBQ holds.
  h.send(nf, /*nf=*/77, h.acc.acc_id, 1);
  h.send(nf, nf, h.acc.acc_id, 64);
  h.run();
  h.drain(nf);
  // kQuota: one batch in flight allowed, a burst that fills three.
  h.send(capped_nf, capped_nf, h.acc.acc_id, 64, 1000);
  h.run();
  h.drain(capped_nf);
  // kCrc: one corrupted completion.
  inj.add_rule({.site = FaultSite::kDmaCompletion,
                .kind = FaultKind::kCorruptHeader,
                .max_count = 1});
  h.send(nf, nf, h.acc.acc_id, 8);
  h.run();
  h.drain(nf);
  // kSubmit: every doorbell lost, no other replica, no fallback.
  inj.add_rule({.site = FaultSite::kDmaSubmit,
                .kind = FaultKind::kSubmitTimeout});
  h.send(nf, nf, h.acc.acc_id, 8);
  h.run(milliseconds(5));
  h.send(nf, nf, h.acc.acc_id, 8);
  h.run(milliseconds(5));
  h.drain(nf);
  h.drain(capped_nf);

  const LedgerAudit audit = h.rt->ledger().audit();
  ASSERT_TRUE(audit.clean()) << audit.to_string();
  const auto snap = h.tel->metrics.snapshot(h.sim.now());
  for (const DropSite& row : kDropSites) {
    SCOPED_TRACE(row.name);
    const auto ledger = audit.dropped[static_cast<std::size_t>(row.site)];
    const auto counter = static_cast<std::uint64_t>(snap.sum(row.counter));
    EXPECT_GT(ledger, 0u) << "schedule must reach every drop site";
    // With no fallback registered even the oversize counter (which also
    // counts fallback-served rejections) equals the ledger's tally.
    EXPECT_EQ(counter, ledger) << row.counter;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(snap.sum("dhl.tenant.dropped_pkts")),
            audit.dropped_total());
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
}

// With a fallback registered, the oversize counter also counts the
// rejections the fallback served: ledger <= counter.
TEST(DropSites, OversizeCounterIncludesFallbackServed) {
  if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out";
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  h.ready();
  h.rt->register_fallback(nf, "loopback", [](std::span<Mbuf* const>) {});

  h.send(nf, nf, h.acc.acc_id, 3, 7000);
  h.run();
  EXPECT_EQ(h.drain(nf), 3u);

  const LedgerAudit audit = h.rt->ledger().audit();
  ASSERT_TRUE(audit.clean()) << audit.to_string();
  const DropSite& row = drop_site(LedgerDrop::kOversize);
  const double counter = h.tel->metrics.snapshot().sum(row.counter);
  EXPECT_LE(audit.dropped[static_cast<std::size_t>(row.site)], counter);
  EXPECT_EQ(counter, 3.0);
}

// The only replica is quarantined at flush time, so its batch goes down
// the fallback path; the fallback serves every packet, and a served packet
// is not a drop -- the flight recorder must not say otherwise.
TEST(DropSites, FallbackServedBatchLogsNoDropEvent) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  h.ready();
  h.rt->register_fallback(nf, "loopback", [](std::span<Mbuf* const>) {});
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/5};
  h.rt->set_fault_injector(&inj);
  inj.add_rule({.site = FaultSite::kDevice,
                .kind = FaultKind::kDeviceUnhealthy,
                .max_count = 1});

  h.send(nf, nf, h.acc.acc_id, 8);
  h.run();

  EXPECT_EQ(h.rt->function_table().entry_for(h.acc.acc_id)->health,
            ReplicaHealth::kQuarantined);
  EXPECT_EQ(h.tel->metrics.snapshot().sum("dhl.fallback.pkts"), 8.0);
  EXPECT_EQ(h.drain(nf), 8u);
  EXPECT_EQ(h.count_events(FlightEventKind::kDrop), 0u);
  EXPECT_EQ(h.count_events(FlightEventKind::kCrcDrop), 0u);
}

// Without the fallback the same batch is dropped: one flight event for the
// whole batch, tagged with the site's name and carrying the packet count.
TEST(DropSites, DroppedBatchLogsOneEvent) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  h.ready();
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/5};
  h.rt->set_fault_injector(&inj);
  inj.add_rule({.site = FaultSite::kDevice,
                .kind = FaultKind::kDeviceUnhealthy,
                .max_count = 1});

  h.send(nf, nf, h.acc.acc_id, 8);
  h.run();

  EXPECT_EQ(h.drain(nf), 0u);
  std::vector<telemetry::FlightEvent> drops;
  for (const telemetry::FlightEvent& e : h.tel->recorder.recent()) {
    if (e.kind == FlightEventKind::kDrop) drops.push_back(e);
  }
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(std::string{drops[0].tag}, drop_site(LedgerDrop::kSubmit).name);
  EXPECT_EQ(drops[0].b, 8);
}

}  // namespace
}  // namespace dhl::runtime
