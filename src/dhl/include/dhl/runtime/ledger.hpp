#pragma once

// LifecycleLedger: the packet-conservation audit trail (DESIGN.md 3.4).
//
// DHL's isolation claim (paper IV-B) is that packets from many NFs can
// share one IBQ, one DMA engine and per-NF OBQs without ever being lost,
// duplicated, or misrouted.  The ledger turns that claim into a checkable
// invariant: every mbuf the Packer dequeues is tracked through the named
// stages of kStageSeams and must end its life in exactly one terminal --
// delivered to an OBQ, or counted at one of the drop sites (kDropSites).
// The runtime reaches stages and terminals only through RuntimeMetrics.
// audit() reports anything else: leaks (tracked but never terminated),
// double terminals, premature releases (freed while the ledger still has
// the packet in flight), and terminal events for packets never tracked.
//
// The ledger is compiled to no-ops when DHL_LEDGER=0 (the Release
// default): the class collapses to empty inline methods so every call
// site stays unconditional and free.  DHL_LEDGER is the only switch: a
// ledger-compiled runtime always tracks.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/mbuf_observer.hpp"
#include "dhl/telemetry/telemetry.hpp"

#ifndef DHL_LEDGER
#define DHL_LEDGER 1
#endif

namespace dhl::runtime {

/// True when this build carries the ledger (tests skip audit-mutation
/// checks in ledger-off builds instead of vacuously passing).
inline constexpr bool kLedgerCompiled = DHL_LEDGER != 0;

/// Lifecycle stages, in pipeline order.  A packet may skip stages (the
/// fallback path never enters a batch) but never moves to a terminal
/// twice.
enum class LedgerStage : std::uint8_t {
  kNicRx,        // carried an RX timestamp when it entered the runtime
  kIbq,          // dequeued from a shared IBQ by the Packer
  kPackerAppend, // appended to an open DMA batch
  kFallback,     // served by a registered software fallback
  kDmaTx,        // submitted on a DMA TX channel
  kFpga,         // completed the host->FPGA transfer
  kDmaRx,        // completed the FPGA->host transfer
  kDistributor,  // decapsulated by the Distributor
  kObq,          // delivered to its NF's private OBQ (terminal)
  kNf,           // released by the NF after delivery (end of life)
  kCount,
};

/// Drop sites (terminals), one row each in kDropSites.
enum class LedgerDrop : std::uint8_t {
  kUnready,   // unknown/unready acc_id, or an unload raced an open batch
  kSubmit,    // retry budget + redirect + fallback all exhausted
  kCrc,       // batch failed the Distributor's integrity gate
  kObq,       // OBQ full or nf_id out of range
  kOversize,  // record over the DMA hardware cap, no fallback registered
  kQuota,     // tenant batch budget exhausted at a capacity flush
  kCount,
};

inline constexpr std::size_t kDropSiteCount =
    static_cast<std::size_t>(LedgerDrop::kCount);

/// Everything a drop site is called outside the enum: its ledger reason
/// (dhl.ledger.dropped{reason} and audit reports, also the flight-event
/// tag), the registry counter it is counted in, and the flight-recorder
/// ring and kind its events land in.  RuntimeMetrics::drop() is driven
/// entirely by this table, so a new drop site is one enum value plus one
/// row here.
struct DropSite {
  LedgerDrop site;
  const char* name;
  const char* counter;
  /// The counter is labelled {tenant}: TenantRegistry counts it
  /// (count_quota_drop) instead of the drop seam.
  bool tenant_labelled;
  telemetry::FlightComponent component;
  telemetry::FlightEventKind kind;
};

inline constexpr DropSite kDropSites[kDropSiteCount] = {
    {LedgerDrop::kUnready, "unready", "dhl.runtime.unready_drops", false,
     telemetry::FlightComponent::kPacker, telemetry::FlightEventKind::kDrop},
    {LedgerDrop::kSubmit, "submit", "dhl.runtime.submit_drop_pkts", false,
     telemetry::FlightComponent::kPacker, telemetry::FlightEventKind::kDrop},
    {LedgerDrop::kCrc, "crc", "dhl.batch.crc_drop_pkts", false,
     telemetry::FlightComponent::kDistributor,
     telemetry::FlightEventKind::kCrcDrop},
    {LedgerDrop::kObq, "obq", "dhl.runtime.obq_drops", false,
     telemetry::FlightComponent::kDistributor,
     telemetry::FlightEventKind::kDrop},
    // The oversize counter counts every batching rejection, fallback-served
    // packets included; the ledger only sees the real drops.
    {LedgerDrop::kOversize, "oversize", "dhl.runtime.oversize_drops", false,
     telemetry::FlightComponent::kPacker, telemetry::FlightEventKind::kDrop},
    {LedgerDrop::kQuota, "quota", "dhl.tenant.quota_drops", true,
     telemetry::FlightComponent::kPacker, telemetry::FlightEventKind::kDrop},
};

constexpr const DropSite& drop_site(LedgerDrop site) {
  return kDropSites[static_cast<std::size_t>(site)];
}

static_assert(
    [] {
      for (std::size_t i = 0; i < kDropSiteCount; ++i) {
        if (static_cast<std::size_t>(kDropSites[i].site) != i) return false;
      }
      return true;
    }(),
    "kDropSites rows must follow LedgerDrop order");

/// Stage seams: the points where a packet or batch moves on, one row each
/// in kStageSeams.  The ledger's stages come first, in LedgerStage order.
enum class StageSeam : std::uint8_t {
  kNicRx, kIbq, kPackerAppend, kFallback, kDmaTx, kFpga, kDmaRx, kDistributor,
  kObq, kNf,
  kFlush,     // Packer flushed the batch: stamps it, marks nothing
  kRxSubmit,  // the fabric queued the batch on DMA RX: closes fpga
  kCount,
};

inline constexpr LedgerStage kNoLedgerStage = LedgerStage::kCount;
inline constexpr telemetry::Stage kNoInterval = telemetry::Stage::kCount;

/// What a seam does: the ledger stage it marks and the stage-latency
/// interval it closes (or none).  RuntimeMetrics drives both from this
/// table; `name` doubles as the ledger stage's name (to_string).
struct StageSeamRow {
  StageSeam seam;
  const char* name;
  LedgerStage ledger;
  telemetry::Stage closes;
  bool per_batch;  // marks every parked packet at once
  /// Sampled at OBQ delivery only, so the interval's count trails the
  /// ledger's entries by the packets dropped (or never RX-timestamped).
  bool on_delivery;
};

inline constexpr StageSeamRow kStageSeams[] = {
    // seam, name, ledger stage, interval closed, per_batch, on_delivery
    {StageSeam::kNicRx, "nic.rx", LedgerStage::kNicRx, kNoInterval, false,
     false},
    {StageSeam::kIbq, "ibq", LedgerStage::kIbq, telemetry::Stage::kIbqWait,
     false, true},
    {StageSeam::kPackerAppend, "packer.append", LedgerStage::kPackerAppend,
     kNoInterval, false, false},
    {StageSeam::kFallback, "fallback", LedgerStage::kFallback,
     telemetry::Stage::kFallback, false, true},
    // The doorbell records pack (first append -> flush stamp).
    {StageSeam::kDmaTx, "dma.tx", LedgerStage::kDmaTx, telemetry::Stage::kPack,
     true, false},
    {StageSeam::kFpga, "fpga", LedgerStage::kFpga, telemetry::Stage::kDmaTx,
     true, false},
    {StageSeam::kDmaRx, "dma.rx", LedgerStage::kDmaRx, telemetry::Stage::kDmaRx,
     true, false},
    {StageSeam::kDistributor, "distributor", LedgerStage::kDistributor,
     telemetry::Stage::kDistributor, true, false},
    {StageSeam::kObq, "obq", LedgerStage::kObq, telemetry::Stage::kEndToEnd,
     false, false},
    {StageSeam::kNf, "nf", LedgerStage::kNf, kNoInterval, false, false},
    {StageSeam::kFlush, "flush", kNoLedgerStage, kNoInterval, true, false},
    {StageSeam::kRxSubmit, "rx.submit", kNoLedgerStage, telemetry::Stage::kFpga,
     true, false},
};

constexpr const StageSeamRow& stage_seam(StageSeam seam) {
  return kStageSeams[static_cast<std::size_t>(seam)];
}

static_assert(
    [] {
      constexpr auto kLedgerStages =
          static_cast<std::size_t>(LedgerStage::kCount);
      std::size_t i = 0;
      for (const StageSeamRow& row : kStageSeams) {
        if (static_cast<std::size_t>(row.seam) != i ||
            (i < kLedgerStages && static_cast<std::size_t>(row.ledger) != i)) {
          return false;
        }
        ++i;
      }
      return i == static_cast<std::size_t>(StageSeam::kCount);
    }(),
    "kStageSeams rows must follow StageSeam order, ledger stages first");

constexpr const char* to_string(LedgerStage stage) {
  return stage < LedgerStage::kCount ? stage_seam(StageSeam(stage)).name
                                     : "unknown";
}

/// Ceiling on tenant lanes the ledger shards by (mirrors kMaxTenants in
/// tenant.hpp without coupling the headers).
inline constexpr std::size_t kLedgerTenantLanes = 16;

/// Result of LifecycleLedger::audit().  `clean()` is the invariant every
/// well-behaved run must satisfy after draining: no packet still open, no
/// double terminals, no premature releases, no terminal events for
/// untracked packets.
struct LedgerAudit {
  struct Leak {
    const netio::Mbuf* mbuf = nullptr;
    LedgerStage stage = LedgerStage::kIbq;
  };

  std::uint64_t tracked = 0;    // lifecycles opened (on_ingress)
  std::uint64_t delivered = 0;  // terminal: delivered to an OBQ
  std::uint64_t dropped[kDropSiteCount] = {};
  std::uint64_t live = 0;  // still open (in flight if mid-run, leaks after)
  std::uint64_t double_track = 0;      // on_ingress on a still-open packet
  std::uint64_t double_terminal = 0;   // second terminal for one lifecycle
  std::uint64_t premature_release = 0; // freed while the ledger had it open
  std::uint64_t orphan_terminal = 0;   // terminal for a never-tracked packet
  /// Packets entering each stage (conservation ledger per stage).
  std::uint64_t stage_entries[static_cast<std::size_t>(LedgerStage::kCount)] =
      {};
  /// Sample of still-open records (capped; `live` is the true count).
  std::vector<Leak> leaks;

  /// Per-tenant conservation shard: every tracked lifecycle is attributed
  /// to the tenant its NF was bound to at ingress.
  struct TenantTally {
    std::string tenant;
    std::uint64_t tracked = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t live = 0;
    bool clean() const {
      return live == 0 && tracked == delivered + dropped;
    }
  };
  std::vector<TenantTally> tenants;
  const TenantTally* tenant(const std::string& name) const;

  std::uint64_t dropped_total() const;
  bool clean() const;
  /// Multi-line human-readable report for test failure messages.
  std::string to_string() const;
};

/// NF -> tenant-id and tenant-id -> display-name hooks, injected by the
/// runtime so the ledger can shard without depending on tenant.hpp.
using LedgerTenantIdFn = std::function<std::uint8_t(netio::NfId)>;
using LedgerTenantNameFn = std::function<std::string(std::uint8_t)>;

#if DHL_LEDGER

class LifecycleLedger final : public netio::MbufLifecycleObserver {
 public:
  /// Installs itself as the process-wide mbuf release observer (single
  /// slot: a second concurrent runtime keeps its ledger but loses
  /// premature-release detection, with a warning).
  explicit LifecycleLedger(telemetry::Telemetry& telemetry);
  ~LifecycleLedger() override;

  LifecycleLedger(const LifecycleLedger&) = delete;
  LifecycleLedger& operator=(const LifecycleLedger&) = delete;

  /// A packet entered the runtime (Packer IBQ dequeue).  Opens a
  /// lifecycle; counts nic.rx when the mbuf carries an RX timestamp.
  /// Re-tracking a packet whose previous lifecycle is closed is legal
  /// (chained NFs re-send delivered packets) and starts a fresh lifecycle.
  void on_ingress(const netio::Mbuf* m);
  /// Stage transition (idempotent: re-entering the current stage, e.g. a
  /// DMA submit retry, is a no-op).  Ignored for untracked packets.
  void on_stage(const netio::Mbuf* m, LedgerStage stage);
  /// Terminal: delivered to its NF's private OBQ.
  void on_delivered(const netio::Mbuf* m);
  /// Terminal: dropped at `site`.
  void on_drop(const netio::Mbuf* m, LedgerDrop site);

  /// Install the tenant attribution hooks (both or neither).  Without
  /// them every lifecycle lands in lane 0 ("default").
  void set_tenant_resolver(LedgerTenantIdFn id_of, LedgerTenantNameFn name_of);

  /// Snapshot the conservation state.  After a drained run, clean().
  LedgerAudit audit() const;

  // netio::MbufLifecycleObserver
  void on_mbuf_release(netio::Mbuf& mbuf, bool last_ref) override;

 private:
  struct Record {
    LedgerStage stage = LedgerStage::kIbq;
    bool closed = false;
    std::uint8_t tenant = 0;  // attribution lane, resolved at ingress
  };

  /// Close the record as a terminal; returns false (and counts) on a
  /// double terminal or an untracked packet.
  Record* terminal_record(const netio::Mbuf* m);

  bool installed_ = false;
  std::unordered_map<const netio::Mbuf*, Record> records_;

  // Tallies mirrored into dhl.ledger.* telemetry.
  std::uint64_t open_ = 0;  // lifecycles with no terminal yet
  std::uint64_t tracked_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_[kDropSiteCount] = {};
  std::uint64_t double_track_ = 0;
  std::uint64_t double_terminal_ = 0;
  std::uint64_t premature_release_ = 0;
  std::uint64_t orphan_terminal_ = 0;
  std::uint64_t stage_entries_[static_cast<std::size_t>(LedgerStage::kCount)] =
      {};

  LedgerTenantIdFn tenant_id_of_;
  LedgerTenantNameFn tenant_name_of_;
  std::uint64_t tenant_tracked_[kLedgerTenantLanes] = {};
  std::uint64_t tenant_delivered_[kLedgerTenantLanes] = {};
  std::uint64_t tenant_dropped_[kLedgerTenantLanes] = {};

  telemetry::Counter* tracked_counter_ = nullptr;
  telemetry::Counter* delivered_counter_ = nullptr;
  telemetry::Counter* drop_counters_[kDropSiteCount] = {};
  telemetry::Counter* violation_counter_ = nullptr;
  telemetry::Gauge* live_gauge_ = nullptr;
};

#else  // !DHL_LEDGER

/// Ledger-off stub: same surface, empty inline bodies.  Call sites stay
/// unconditional; the optimizer erases them from the Release hot path.
class LifecycleLedger {
 public:
  explicit LifecycleLedger(telemetry::Telemetry&) {}

  LifecycleLedger(const LifecycleLedger&) = delete;
  LifecycleLedger& operator=(const LifecycleLedger&) = delete;

  void on_ingress(const netio::Mbuf*) {}
  void on_stage(const netio::Mbuf*, LedgerStage) {}
  void on_delivered(const netio::Mbuf*) {}
  void on_drop(const netio::Mbuf*, LedgerDrop) {}
  void set_tenant_resolver(LedgerTenantIdFn, LedgerTenantNameFn) {}
  LedgerAudit audit() const { return {}; }
};

#endif  // DHL_LEDGER

}  // namespace dhl::runtime
