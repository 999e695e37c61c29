#pragma once

// NF service chains over DHL.
//
// The NFV service chains of the paper's introduction ("it is thus inflexible
// to use FPGA to implement the entire NFV service chain") are exactly where
// the CPU-FPGA split pays off: each chain stage keeps its control logic on
// CPU and may offload its deep processing to a hardware function, and one
// FPGA serves all the stages' modules simultaneously.
//
// A ChainNf runs an ordered list of stages per packet:
//   * CPU stages execute a packet function inline on the chain's cores;
//   * offload stages ship the packet to a hardware function and resume the
//     chain at the next stage when it returns (the resume point rides the
//     mbuf's user_tag, and each offload stage has its own acc_id).
//
// Core layout mirrors DhlOffloadNf: an ingress core (NIC RX -> stages until
// the first offload) and an egress core (OBQ -> remaining stages -> NIC TX).
// Chains without offload stages never touch the runtime.
//
// Fabric fusion (DESIGN.md 3.7): maximal runs of >= 2 consecutive offload
// stages are fused through DHL_compose_chain into one chain handle, so the
// run costs one PCIe round trip instead of one per stage.  Only runs whose
// intermediate stages have no `post` callback fuse (a fused record carries
// just the last stage's result word, so intermediate results must be
// unobserved); the egress resume tag then points past the run and the last
// stage's post runs as usual.  When the fused handle is unavailable --
// composition failed, PR still in flight, or the daemon unloaded it -- the
// chain falls back to per-stage round trips with identical bytes.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dhl/nf/pipeline.hpp"
#include "dhl/runtime/api.hpp"

namespace dhl::nf {

struct ChainStage {
  std::string name;

  /// CPU stage: run `fn` (cost per packet from `cost`).  Ignored for
  /// offload stages.
  PacketFn fn;
  CostFn cost;

  /// Offload stage: non-empty hf_name ships the packet to this hardware
  /// function; `post`/`post_cost` run on return (e.g. result-word checks).
  std::string hf_name;
  std::vector<std::uint8_t> acc_config;
  PacketFn post;
  CostFn post_cost;

  bool is_offload() const { return !hf_name.empty(); }

  static ChainStage cpu(std::string name, PacketFn fn, CostFn cost) {
    ChainStage s;
    s.name = std::move(name);
    s.fn = std::move(fn);
    s.cost = std::move(cost);
    return s;
  }
  static ChainStage offload(std::string name, std::string hf_name,
                            std::vector<std::uint8_t> config, PacketFn post,
                            CostFn post_cost) {
    ChainStage s;
    s.name = std::move(name);
    s.hf_name = std::move(hf_name);
    s.acc_config = std::move(config);
    s.post = std::move(post);
    s.post_cost = std::move(post_cost);
    return s;
  }
};

struct ChainConfig {
  std::string name = "chain";
  int socket = 0;
  sim::TimingParams timing;
  std::uint32_t io_burst = 32;
  /// Tenant the chain's offload traffic is admitted and accounted under.
  TenantId tenant = kDefaultTenant;
  /// Fuse maximal eligible offload runs via DHL_compose_chain.
  bool fuse = true;
};

struct ChainStats {
  std::uint64_t rx_pkts = 0;
  std::uint64_t completed = 0;  // traversed every stage and left via TX
  std::uint64_t dropped = 0;    // dropped by some stage
  std::uint64_t offloads = 0;   // packets shipped to the FPGA (any stage)
  std::uint64_t fused_offloads = 0;  // of which: via a fused chain handle
  std::uint64_t ibq_drops = 0;  // refused by quota admission or a full IBQ
  std::uint64_t bad_port_drops = 0;  // TX to a port id the chain doesn't own
  std::uint64_t handle_refreshes = 0;  // stale acc handles re-resolved
};

/// A fused run of offload stages [first, last] dispatched as one handle.
struct FusedSegment {
  std::size_t first = 0;
  std::size_t last = 0;
  std::string chain_name;
  runtime::AccHandle handle;
  /// Framed per-stage configuration (encode_chain_config), re-applied when
  /// a stale handle is re-resolved after a daemon unload.
  std::vector<std::uint8_t> config;
};

class ChainNf {
 public:
  /// `runtime` may be null iff no stage offloads.  Resolves (and PR-loads)
  /// every offload stage's hardware function at construction.
  ChainNf(sim::Simulator& simulator, ChainConfig config,
          std::vector<netio::NicPort*> ports, runtime::DhlRuntime* runtime,
          std::vector<ChainStage> stages);

  /// True once every offload stage's module is loaded.
  bool ready() const;

  void start();
  void stop();

  netio::NfId nf_id() const { return nf_id_; }
  const ChainStats& stats() const { return stats_; }
  std::vector<sim::Lcore*> cores();
  std::size_t stage_count() const { return stages_.size(); }
  const runtime::AccHandle& stage_handle(std::size_t i) const {
    return handles_[i];
  }
  const std::vector<FusedSegment>& segments() const { return segments_; }

 private:
  sim::PollResult ingress_poll();
  sim::PollResult egress_poll();

  /// Run stages starting at `stage` until the packet drops, offloads, or
  /// completes.  Appends cycle cost to `cycles`; completed packets are
  /// deferred-TXed, offloads deferred-sent.
  void run_from(netio::Mbuf* m, std::size_t stage, double& cycles,
                std::vector<netio::Mbuf*>& to_send,
                std::vector<netio::Mbuf*>& to_tx);

  /// The chain's port for `port_id`, or nullptr when it owns no such port
  /// (the packet must be counted and dropped, never mis-TXed).
  netio::NicPort* port_by_id(std::uint16_t port_id);

  /// Flush `to_send` through the tenant-aware instance API and TX `to_tx`,
  /// after `cycles` core cycles (the deferred half of both poll loops).
  void deferred_io(double cycles, std::vector<netio::Mbuf*> to_send,
                   std::vector<netio::Mbuf*> to_tx);

  /// Detect maximal fusable offload runs and compose them (constructor).
  void compose_segments();
  /// Per-stage handle for `i`, re-resolved if the daemon unloaded or
  /// recycled it behind our back (satellite of DESIGN.md 3.7).
  runtime::AccHandle& stage_handle_fresh(std::size_t i);
  /// Is the fused segment dispatchable right now?  Re-resolves a stale
  /// chain handle; false falls back to per-stage round trips.
  bool segment_usable(FusedSegment& seg);

  sim::Simulator& sim_;
  ChainConfig config_;
  std::vector<netio::NicPort*> ports_;
  runtime::DhlRuntime* runtime_;
  std::vector<ChainStage> stages_;
  std::vector<runtime::AccHandle> handles_;  // invalid for CPU stages
  std::vector<FusedSegment> segments_;
  /// stage index -> index into segments_ when a fused run starts there,
  /// -1 otherwise (hot-path lookup in run_from).
  std::vector<int> seg_at_;
  telemetry::Counter* bad_port_counter_ = nullptr;
  netio::NfId nf_id_ = netio::kInvalidNfId;
  netio::MbufRing* ibq_ = nullptr;
  netio::MbufRing* obq_ = nullptr;
  std::unique_ptr<sim::Lcore> ingress_core_;
  std::unique_ptr<sim::Lcore> egress_core_;
  /// Dequeue buffer (io_burst slots) reused by both polls, which never
  /// nest, so an idle poll allocates nothing.
  std::vector<netio::Mbuf*> burst_;
  ChainStats stats_;
};

}  // namespace dhl::nf
