#pragma once

// DHL-version NF execution model.
//
// Paper Table IV: the DHL version of an NF owns only its Ethernet I/O
// cores -- shallow per-packet work (SA matching, header prep, tagging, rule
// option evaluation) rides on them, while deep processing happens in the
// FPGA via the DHL Runtime's transfer cores.
//
// Core layouts, matching the paper's two experiment shapes:
//  * split ingress/egress (single-NF on a 40G port, V-C): core 0 polls NIC
//    RX -> prep -> DHL_send_packets; core 1 polls the private OBQ ->
//    post-process -> NIC TX.
//  * per-port cores (multi-NF on 10G ports, V-D): one core per port doing
//    ingress for that port; core 0 additionally drains the OBQ (it is a
//    single-consumer ring) and transmits.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dhl/nf/pipeline.hpp"
#include "dhl/runtime/api.hpp"

namespace dhl::nf {

struct DhlNfConfig {
  std::string name = "nf-dhl";
  int socket = 0;
  sim::TimingParams timing;
  std::uint32_t io_burst = 32;
  /// True: 2 cores, ingress/egress split.  False: one core per port
  /// (ingress), core 0 also egress.
  bool split_ingress_egress = true;
  /// Hardware function this NF offloads to.
  std::string hf_name;
  /// Configuration blob for DHL_acc_configure (may be empty).
  std::vector<std::uint8_t> acc_config;
  /// Tenant to register under (must already exist; 0 = default tenant).
  /// Non-default tenants get their outstanding-bytes quota enforced at
  /// DHL_send_packets time -- refused packets count as ibq_drops here.
  TenantId tenant = kDefaultTenant;
};

struct DhlNfStats {
  std::uint64_t rx_pkts = 0;
  std::uint64_t sent_to_fpga = 0;
  std::uint64_t ibq_drops = 0;   // IBQ full: packet dropped
  std::uint64_t prep_drops = 0;  // prep verdict kDrop
  std::uint64_t received = 0;
  std::uint64_t post_drops = 0;  // post verdict kDrop (e.g. NIDS drop rule)
  std::uint64_t tx_pkts = 0;
  std::uint64_t bad_port_drops = 0;  // TX to a port id the NF doesn't own
};

class DhlOffloadNf {
 public:
  /// Registers with the runtime, resolves the hardware function (triggering
  /// a PR load on first use) and configures it -- the Listing 2 sequence.
  DhlOffloadNf(sim::Simulator& simulator, DhlNfConfig config,
               std::vector<netio::NicPort*> ports,
               runtime::DhlRuntime& runtime, PacketFn prep, CostFn prep_cost,
               PacketFn post, CostFn post_cost);

  /// True once the hardware function's PR load completed.
  bool ready() const { return runtime_.acc_ready(handle_); }

  netio::NfId nf_id() const { return nf_id_; }
  const runtime::AccHandle& handle() const { return handle_; }

  void start();
  void stop();

  const DhlNfStats& stats() const { return stats_; }
  std::vector<sim::Lcore*> cores();
  std::uint32_t total_cores() const {
    return static_cast<std::uint32_t>(cores_.size());
  }

 private:
  sim::PollResult ingress_poll(std::size_t core_index);
  sim::PollResult egress_poll();
  /// The NF's port for `port_id`, or nullptr when it owns no such port
  /// (the packet must be counted and dropped, never mis-TXed).
  netio::NicPort* port_by_id(std::uint16_t port_id);

  sim::Simulator& sim_;
  DhlNfConfig config_;
  std::vector<netio::NicPort*> ports_;
  runtime::DhlRuntime& runtime_;
  PacketFn prep_;
  CostFn prep_cost_;
  PacketFn post_;
  CostFn post_cost_;
  netio::NfId nf_id_;
  runtime::AccHandle handle_;
  netio::MbufRing* ibq_ = nullptr;
  netio::MbufRing* obq_ = nullptr;
  std::vector<std::unique_ptr<sim::Lcore>> cores_;
  /// Dequeue buffer (io_burst slots) reused by both polls, which never
  /// nest, so an idle poll allocates nothing.
  std::vector<netio::Mbuf*> burst_;
  DhlNfStats stats_;
};

}  // namespace dhl::nf
