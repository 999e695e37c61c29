#include "dhl/runtime/runtime_metrics.hpp"

namespace dhl::runtime {

using netio::Mbuf;

RuntimeMetrics::RuntimeMetrics(sim::Simulator& simulator,
                               telemetry::Telemetry& telemetry,
                               LifecycleLedger& ledger, TenantRegistry& tenants,
                               std::vector<NfInfo>& nfs)
    : registry{telemetry.metrics},
      ledger{ledger},
      tenants{tenants},
      sim_{simulator},
      telemetry_{telemetry},
      nfs_{nfs} {
  pkts_to_fpga = registry.counter("dhl.runtime.pkts_to_fpga");
  batches_to_fpga = registry.counter("dhl.runtime.batches_to_fpga");
  bytes_to_fpga = registry.counter("dhl.runtime.bytes_to_fpga");
  pkts_from_fpga = registry.counter("dhl.runtime.pkts_from_fpga");
  batches_from_fpga = registry.counter("dhl.runtime.batches_from_fpga");
  error_records = registry.counter("dhl.runtime.error_records");
  flush_full = registry.counter("dhl.runtime.flush_full_batches");
  flush_timeout = registry.counter("dhl.runtime.flush_timeout_batches");
  oversize_drops = registry.counter("dhl.runtime.oversize_drops");
  stale_acc_batches = registry.counter("dhl.runtime.stale_acc_batches");
  batch_fill_ppm = registry.histogram("dhl.runtime.batch_fill_ppm");
  copy_bytes = registry.counter("dhl.copy_bytes");
  zero_copy_bytes = registry.counter("dhl.zero_copy_bytes");
  dma_retries = registry.counter("dhl.dma.retries");
  crc_drop_batches = registry.counter("dhl.batch.crc_drops");
  fallback_pkts = registry.counter("dhl.fallback.pkts");
  for (std::size_t i = 0; i < kDropSiteCount; ++i) {
    if (!kDropSites[i].tenant_labelled) {
      site_counters_[i] = registry.counter(kDropSites[i].counter);
    }
  }
}

void RuntimeMetrics::account_drop(const Mbuf* m, LedgerDrop site) {
  // Ledger first: the release that follows must find the lifecycle closed.
  ledger.on_drop(m, site);
  if (drop_site(site).tenant_labelled) {
    tenants.count_quota_drop(m->nf_id());
  } else {
    tenants.count_drop(m->nf_id());
  }
}

void RuntimeMetrics::log_drop(LedgerDrop site, netio::NfId nf,
                              std::size_t count, std::uint64_t batch_id) {
  const DropSite& row = drop_site(site);
  telemetry_.recorder.log(row.component, sim_.now(), row.kind, row.name,
                          static_cast<std::int16_t>(nf),
                          static_cast<std::int32_t>(count), batch_id);
}

void RuntimeMetrics::drop(Mbuf* m, LedgerDrop site) {
  if (telemetry::Counter* c = site_counters_[static_cast<std::size_t>(site)]) {
    c->add(1);
  }
  account_drop(m, site);
  log_drop(site, m->nf_id(), 1, 0);
  m->release();
}

void RuntimeMetrics::drop_all(std::span<Mbuf* const> pkts, LedgerDrop site,
                              std::uint64_t batch_id) {
  if (pkts.empty()) return;
  if (telemetry::Counter* c = site_counters_[static_cast<std::size_t>(site)]) {
    c->add(pkts.size());
  }
  log_drop(site, pkts.front()->nf_id(), pkts.size(), batch_id);
  for (Mbuf* m : pkts) {
    account_drop(m, site);
    m->release();
  }
}

void RuntimeMetrics::close_pack(const fpga::DmaBatch& batch) {
  telemetry_.stages.record_n(telemetry::Stage::kPack,
                             batch.stage_ts - batch.first_pkt_enqueued_at,
                             batch.record_count());
  telemetry_.recorder.log(telemetry::FlightComponent::kPacker, batch.stage_ts,
                          telemetry::FlightEventKind::kBatchFlush,
                          batch.hf_name,
                          static_cast<std::int16_t>(batch.record_count()),
                          static_cast<std::int32_t>(batch.size_bytes()),
                          batch.batch_id);
}

bool RuntimeMetrics::deliver(std::size_t nf, Mbuf* m, Picos now,
                             LedgerStage via) {
  if (via == LedgerStage::kFallback) {
    fallback_pkts->add(1);
    stage(m, via);
  }
  if (nf >= nfs_.size()) {
    drop(m, LedgerDrop::kObq);
    return false;
  }
  NfInfo& info = nfs_[nf];
  const bool delivered = info.obq->enqueue(m);
  info.obq_depth->set(static_cast<double>(info.obq->count()));
  if (!delivered) {
    info.obq_drops->add(1);
    drop(m, LedgerDrop::kObq);
    return false;
  }
  ledger.on_delivered(m);
  tenants.count_delivered(static_cast<netio::NfId>(nf));
  telemetry::StageLatencyRecorder& stages = telemetry_.stages;
  const Picos rx = m->rx_timestamp();
  if (!stages.enabled() || rx == netio::kNoRxTimestamp || now < rx) {
    return true;
  }
  stages.record_e2e(static_cast<std::uint8_t>(nf), now - rx);
  if (via == LedgerStage::kFallback) {
    // The side path is the packet's whole post-ingress life.
    stages.record(telemetry::Stage::kFallback, now - rx);
  } else if (m->stage_ts() != netio::kNoRxTimestamp && m->stage_ts() >= rx) {
    stages.record(telemetry::Stage::kIbqWait, m->stage_ts() - rx);
  }
  return true;
}

RuntimeMetrics::NfAccCounters& RuntimeMetrics::nf_acc(netio::NfId nf_id,
                                                      netio::AccId acc_id) {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(nf_id) << 16) | acc_id;
  const auto it = nf_acc_.find(key);
  if (it != nf_acc_.end()) return it->second;
  const std::string name = nf_id < nfs_.size() ? nfs_[nf_id].name
                                               : "nf" + std::to_string(nf_id);
  const telemetry::Labels labels{
      {"nf", name}, {"acc", std::to_string(static_cast<int>(acc_id))}};
  NfAccCounters c;
  c.pkts = registry.counter("dhl.runtime.nf_pkts", labels);
  c.bytes = registry.counter("dhl.runtime.nf_bytes", labels);
  c.returned = registry.counter("dhl.runtime.nf_returned_pkts", labels);
  c.errors = registry.counter("dhl.runtime.nf_error_records", labels);
  return nf_acc_.emplace(key, c).first->second;
}

}  // namespace dhl::runtime
