#pragma once

// Shared data-plane state of the DHL Runtime: the counters and instruments
// the Packer, Distributor and FallbackRouter all account against, and the
// packet-event seam (DESIGN.md section 3.4).
//
// A packet's life ends in exactly one of two ways -- delivered to its NF's
// private OBQ, or dropped at one of the LedgerDrop sites.  drop(),
// drop_all() and deliver() are the only places that decide a fate: each
// updates the site's counter (kDropSites), the ledger, the tenant tallies
// and the flight recorder, then releases or enqueues the mbuf.  Cycle
// charges and in_flight accounting stay with the callers.
// On the way, ingress(), stage() and batch_stage() are the only places that
// move a packet between stages (kStageSeams: ledger stage + stage-latency
// interval, against the rolling stamp on the mbuf or batch).

#include <map>
#include <span>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/netio/mbuf.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/tenant.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::runtime {

class RuntimeMetrics {
 public:
  RuntimeMetrics(sim::Simulator& simulator, telemetry::Telemetry& telemetry,
                 LifecycleLedger& ledger, TenantRegistry& tenants,
                 std::vector<NfInfo>& nfs);

  RuntimeMetrics(const RuntimeMetrics&) = delete;
  RuntimeMetrics& operator=(const RuntimeMetrics&) = delete;

  // --- stage seams ----------------------------------------------------------

  /// Packer IBQ dequeue: opens the ledger lifecycle, stamps for ibq_wait.
  void ingress(netio::Mbuf* m, Picos now) {
    m->set_stage_ts(now);
    ledger.on_ingress(m);
  }

  /// Per-packet seam: marks `stage` for `m`; closes no interval.
  void stage(const netio::Mbuf* m, LedgerStage stage) {
    ledger.on_stage(m, stage);
  }

  /// Per-batch seam: marks every parked packet, closes the seam's interval
  /// with one record_n and restamps the batch for the next seam.
  void batch_stage(fpga::DmaBatch& batch, StageSeam seam, Picos now) {
    const StageSeamRow& row = stage_seam(seam);
    if (row.ledger != kNoLedgerStage) {
      for (const netio::Mbuf* m : batch.pkts()) ledger.on_stage(m, row.ledger);
    }
    if (!telemetry_.stages.enabled()) return;
    if (row.closes != kNoInterval) {
      if (batch.stage_ts == 0) return;  // never flushed by the runtime
      if (seam == StageSeam::kDmaTx) {
        close_pack(batch);
        return;
      }
      // The parked mbufs, or the records of a batch built without them.
      telemetry_.stages.record_n(row.closes, now - batch.stage_ts,
                                 batch.pkts().empty() ? batch.record_count()
                                                      : batch.pkts().size());
    }
    batch.stage_ts = now;
  }

  /// A DMA TX submit retry waits `backoff` (dhl.dma.retries, retry_backoff).
  void retry(Picos backoff) {
    dma_retries->add(1);
    telemetry_.stages.record(telemetry::Stage::kRetryBackoff, backoff);
  }

  // --- packet terminals -----------------------------------------------------

  /// Terminal: drop `m` at `site` -- site counter, ledger, tenant tally, one
  /// flight event (a = nf_id, b = 1), then release.
  void drop(netio::Mbuf* m, LedgerDrop site);
  /// Terminal: drop every packet of `pkts` at `site`, with one flight event
  /// for the lot (a = first packet's nf_id, b = count, c = `batch_id`).
  void drop_all(std::span<netio::Mbuf* const> pkts, LedgerDrop site,
                std::uint64_t batch_id);
  /// Terminal: enqueue `m` on NF `nf`'s private OBQ, or drop it at
  /// LedgerDrop::kObq when `nf` is unregistered or the OBQ is full (the
  /// latter also counts dhl.nf.obq_drops).  `via` is kDistributor, or
  /// kFallback for a packet the software fallback served (counted and
  /// marked here).  On delivery, records end_to_end plus ibq_wait -- or
  /// fallback, for the side path -- at `now`.  True when delivered.
  bool deliver(std::size_t nf, netio::Mbuf* m, Picos now,
               LedgerStage via = LedgerStage::kDistributor);

  /// Hot-path counters for one (nf_id, acc_id) pair, created lazily on
  /// first packet so the registry only carries live series.
  struct NfAccCounters {
    telemetry::Counter* pkts = nullptr;      // host -> FPGA
    telemetry::Counter* bytes = nullptr;     // host -> FPGA payload bytes
    telemetry::Counter* returned = nullptr;  // FPGA -> host
    telemetry::Counter* errors = nullptr;    // error-flagged records
  };

  /// Counters labelled with the NF's registered name ("nf<id>" for an
  /// unregistered id).
  NfAccCounters& nf_acc(netio::NfId nf_id, netio::AccId acc_id);

  telemetry::MetricsRegistry& registry;
  /// Packet-lifecycle ledger and tenant registry, shared with the
  /// components for stage transitions and quota accounting.
  LifecycleLedger& ledger;
  TenantRegistry& tenants;

  // dhl.runtime.* series.
  telemetry::Counter* pkts_to_fpga = nullptr;
  telemetry::Counter* batches_to_fpga = nullptr;
  telemetry::Counter* bytes_to_fpga = nullptr;
  telemetry::Counter* pkts_from_fpga = nullptr;
  telemetry::Counter* batches_from_fpga = nullptr;
  telemetry::Counter* error_records = nullptr;
  // Packer behaviour: why batches shipped and how full they were.
  telemetry::Counter* flush_full = nullptr;
  telemetry::Counter* flush_timeout = nullptr;
  /// Packets whose single record could never fit a batch (record header +
  /// payload > max_batch_bytes); routed to the software fallback when one
  /// is registered, dropped otherwise -- never silently wedged in an open
  /// batch that can't flush.  Unlike the other drop-site counters it
  /// counts every rejection: drop() counts the dropped ones, the Packer
  /// the ones the fallback served.
  telemetry::Counter* oversize_drops = nullptr;
  /// Batches whose acc_id slot was recycled (unload + reload) while they
  /// were in flight; detected by the generation tag, routed by hf_name.
  telemetry::Counter* stale_acc_batches = nullptr;
  /// Batch fill at flush in parts-per-million of the *effective* cap at
  /// flush time -- batch_cap(), i.e. the adaptive cap when adaptive
  /// batching has shrunk it, max_batch_bytes otherwise.  (The log-binned
  /// histogram needs integer samples >= 1000 for resolution.)
  telemetry::Histogram* batch_fill_ppm = nullptr;
  // Zero-copy data-plane accounting: payload bytes that were memcpy'd on
  // the host path (RX write-back) vs. bytes that moved by SG descriptor or
  // skipped the write-back.
  telemetry::Counter* copy_bytes = nullptr;       // dhl.copy_bytes
  telemetry::Counter* zero_copy_bytes = nullptr;  // dhl.zero_copy_bytes
  // Failure model (DESIGN.md section 3.3).
  /// DMA TX submits retried after an injected/observed submit failure.
  telemetry::Counter* dma_retries = nullptr;  // dhl.dma.retries
  /// Whole batches dropped by the Distributor's integrity gate (CRC
  /// mismatch or unparseable wire bytes); their packets count at the kCrc
  /// drop site.
  telemetry::Counter* crc_drop_batches = nullptr;  // dhl.batch.crc_drops
  /// Packets served by a registered software fallback (dhl.fallback.pkts).
  telemetry::Counter* fallback_pkts = nullptr;

  /// Packets currently parked inside batches / the FPGA / completion
  /// queues.  ++ by the Packer on append, -- by the Distributor on return.
  std::uint64_t in_flight = 0;
  /// Correlates a batch's telemetry spans across components.
  std::uint64_t next_batch_id = 1;

 private:
  /// Counter, ledger and tenant tally of one dropped packet (no release).
  void account_drop(const netio::Mbuf* m, LedgerDrop site);
  void log_drop(LedgerDrop site, netio::NfId nf, std::size_t count,
                std::uint64_t batch_id);
  /// The doorbell's pack record (first append -> flush stamp, deferred out
  /// of the timed poll) and batch.flush flight event.
  void close_pack(const fpga::DmaBatch& batch);

  sim::Simulator& sim_;
  telemetry::Telemetry& telemetry_;
  std::vector<NfInfo>& nfs_;
  /// kDropSites[i].counter, resolved once; null for tenant-labelled sites
  /// (the TenantRegistry counts those).
  telemetry::Counter* site_counters_[kDropSiteCount] = {};
  /// Keyed on (nf_id << 16) | acc_id.  The shift is 16 (not the ids' 8-bit
  /// width) so a widened AccId -- long-running PR churn pushing past 256 --
  /// can never alias another NF's counters.
  std::map<std::uint32_t, NfAccCounters> nf_acc_;
};

}  // namespace dhl::runtime
