#pragma once

// Shared infrastructure for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the DHL paper
// (see DESIGN.md section 4) and prints the measured series next to the
// paper's reported values.  Measurement protocol: run the pipeline at full
// offered load to find capacity, then re-run at 90% of capacity to measure
// latency with finite queues (the paper's "under different load factors").

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/common/config_file.hpp"
#include "dhl/common/crc32.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/common/simd.hpp"
#include "dhl/crypto/aes.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/runtime/config_load.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/forwarders.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"
#include "dhl/telemetry/sampler.hpp"
#include "dhl/telemetry/slo.hpp"
#include "dhl/telemetry/stage_stats.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::bench {

inline constexpr std::uint32_t kPacketSizes[] = {64, 128, 256, 512, 1024, 1500};

struct PointResult {
  double throughput_gbps = 0;  // input-traffic basis
  double latency_p50_us = 0;
  double latency_mean_us = 0;
  double latency_p99_us = 0;
  double latency_p999_us = 0;
};

/// One experiment instance: builds a full testbed + NF around one 40G port,
/// runs it at `offered` fraction of line rate, returns the measurement.
/// The three modes mirror Fig 6's series.
enum class NfKind { kIpsec, kNids };
enum class ExecMode { kCpuOnly, kDhl, kIoOnly };

struct SingleNfOptions {
  NfKind kind = NfKind::kIpsec;
  ExecMode mode = ExecMode::kDhl;
  std::uint32_t frame_len = 64;
  double offered = 1.0;
  /// Worker-ring size for the CPU pipeline.  Throughput runs use a deep
  /// ring; latency runs use a small one (queueing delay at saturation is
  /// ring-bound, like any DPDK app tuned for latency).
  std::uint32_t cpu_ring_size = 4096;
  Bandwidth link = Bandwidth::gbps(40);
  Picos warmup = milliseconds(3);
  Picos window = milliseconds(6);
  sim::TimingParams timing;
  fpga::DmaDriver driver = fpga::DmaDriver::kUioPoll;
  bool numa_aware = true;
  int fpga_socket = 0;
  /// When non-empty, enable span tracing + periodic registry sampling for
  /// this run and write a telemetry sidecar (Chrome trace JSON + metrics
  /// snapshot + sampler series + stage-latency decomposition + SLO
  /// verdicts) to this path.
  std::string telemetry_out;
  /// Virtual-time sampling period for the sidecar's time series.
  Picos telemetry_period = milliseconds(1);
  /// Declarative latency/drop budgets evaluated by the SLO watchdog during
  /// a telemetry run; verdicts land in the sidecar's "slo_verdicts" key.
  std::vector<telemetry::SloSpec> slos;
};

/// Parse `--telemetry-out=<path>` from a bench binary's argv (empty when
/// absent), so every bench can grow a telemetry sidecar without a full
/// flag-parsing framework.
inline std::string telemetry_out_arg(int argc, char** argv) {
  constexpr const char* kPrefix = "--telemetry-out=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, std::strlen(kPrefix)) == 0) {
      return argv[i] + std::strlen(kPrefix);
    }
  }
  return {};
}

/// Overlay a config file's [runtime] section onto `config` when the
/// DHL_CONFIG environment variable names one (DESIGN.md section 8) -- the
/// same file format dhl-daemon reads, so one committed .conf can pin a
/// bench's runtime shape without recompiling.  No-op when unset.
inline void apply_env_config(runtime::RuntimeConfig& config) {
  const char* path = std::getenv("DHL_CONFIG");
  if (path == nullptr || *path == '\0') return;
  common::ConfigFile file;
  if (!file.load_file(path)) {
    std::fprintf(stderr, "bench: cannot read DHL_CONFIG=%s\n", path);
    return;
  }
  runtime::apply_runtime_config(file, config);
  for (const std::string& err : file.errors()) {
    std::fprintf(stderr, "bench: config: %s\n", err.c_str());
  }
}

inline PointResult run_single_nf(const SingleNfOptions& opt) {
  nf::TestbedConfig tb_cfg;
  tb_cfg.timing = opt.timing;
  tb_cfg.runtime.timing = opt.timing;
  apply_env_config(tb_cfg.runtime);
  tb_cfg.runtime.numa_aware = opt.numa_aware;
  tb_cfg.fpga.dma = opt.timing.dma;
  tb_cfg.fpga.timing = opt.timing.fpga;
  tb_cfg.fpga.driver = opt.driver;
  tb_cfg.fpga.socket = opt.fpga_socket;
  tb_cfg.introspection.sample_period = opt.telemetry_period;
  tb_cfg.introspection.slos = opt.slos;
  nf::Testbed tb{tb_cfg};
  auto* port = tb.add_port("p0", opt.link);

  // Telemetry sidecar: trace spans, a periodic registry time series, the
  // per-stage latency decomposition, and SLO verdicts -- all driven by the
  // testbed's introspection layer (DESIGN.md section 7).
  if (!opt.telemetry_out.empty()) {
    tb.telemetry().trace.enable();
    tb.start_introspection();
  }

  const auto sa = nf::test_security_association();
  auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  auto automaton = nf::NidsProcessor::build_automaton(*rules);
  auto ipsec = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});
  auto nids = std::make_shared<nf::NidsProcessor>(rules, automaton);

  std::unique_ptr<nf::CpuPipelineNf> cpu_nf;
  std::unique_ptr<nf::RunToCompletionNf> io_nf;
  std::unique_ptr<nf::DhlOffloadNf> dhl_nf;

  switch (opt.mode) {
    case ExecMode::kCpuOnly: {
      nf::PipelineConfig cfg;
      cfg.name = "nf-cpu";
      cfg.timing = tb.timing();
      cfg.num_workers = 2;  // Table IV: 2 worker + 2 I/O cores
      cfg.ring_size = opt.cpu_ring_size;
      nf::PacketFn fn =
          opt.kind == NfKind::kIpsec
              ? nf::PacketFn{[ipsec](netio::Mbuf& m) {
                  return ipsec->cpu_encrypt(m);
                }}
              : nf::PacketFn{[nids](netio::Mbuf& m) {
                  return nids->cpu_process(m);
                }};
      nf::CostFn cost = opt.kind == NfKind::kIpsec
                            ? nf::ipsec_cpu_cost(tb.timing())
                            : nf::nids_cpu_cost(tb.timing());
      cpu_nf = std::make_unique<nf::CpuPipelineNf>(
          tb.sim(), cfg, std::vector<netio::NicPort*>{port}, std::move(fn),
          std::move(cost));
      if (opt.kind == NfKind::kNids) {
        // Batch the worker bursts through the multi-lane AC stepper
        // (find_all_multi) so the CPU-only figure benches exercise the
        // same SIMD/ILP kernel the fallback path uses.
        cpu_nf->set_batch_fn(
            [nids](std::span<netio::Mbuf* const> pkts,
                   std::span<nf::Verdict> out) {
              nids->cpu_process_multi(pkts, out);
            });
      }
      cpu_nf->start();
      break;
    }
    case ExecMode::kIoOnly: {
      nf::RunToCompletionConfig cfg;
      cfg.name = "io";
      cfg.timing = tb.timing();
      cfg.num_cores = 2;  // the paper's 2-core raw-I/O baseline
      io_nf = std::make_unique<nf::RunToCompletionNf>(
          tb.sim(), cfg, std::vector<netio::NicPort*>{port}, nf::io_fwd_fn(),
          nf::zero_cost());
      io_nf->start();
      break;
    }
    case ExecMode::kDhl: {
      auto& rt = tb.init_runtime(automaton);
      nf::DhlNfConfig cfg;
      cfg.timing = tb.timing();
      if (opt.kind == NfKind::kIpsec) {
        cfg.name = "ipsec-dhl";
        cfg.hf_name = "ipsec-crypto";
        cfg.acc_config = accel::ipsec_module_config(false, sa);
        dhl_nf = std::make_unique<nf::DhlOffloadNf>(
            tb.sim(), cfg, std::vector<netio::NicPort*>{port}, rt,
            [ipsec](netio::Mbuf& m) { return ipsec->dhl_prep(m); },
            nf::ipsec_dhl_prep_cost(tb.timing()),
            [ipsec](netio::Mbuf& m) { return ipsec->dhl_post(m); },
            nf::ipsec_dhl_post_cost(tb.timing()));
      } else {
        cfg.name = "nids-dhl";
        cfg.hf_name = "pattern-matching";
        dhl_nf = std::make_unique<nf::DhlOffloadNf>(
            tb.sim(), cfg, std::vector<netio::NicPort*>{port}, rt,
            [nids](netio::Mbuf& m) { return nids->dhl_prep(m); },
            nf::nids_dhl_prep_cost(tb.timing()),
            [nids](netio::Mbuf& m) { return nids->dhl_post(m); },
            nf::nids_dhl_post_cost(tb.timing()));
      }
      tb.run_for(milliseconds(40));  // PR load
      rt.start();
      dhl_nf->start();
      break;
    }
  }

  netio::TrafficConfig traffic;
  traffic.frame_len = opt.frame_len;
  port->start_traffic(traffic, opt.offered);
  tb.measure(opt.warmup, opt.window);

  PointResult r;
  r.throughput_gbps = nf::forwarded_wire_gbps(*port, opt.frame_len, opt.window);
  r.latency_p50_us = to_microseconds(port->latency().percentile(0.5));
  r.latency_mean_us = to_microseconds(port->latency().mean());
  r.latency_p99_us = to_microseconds(port->latency().percentile(0.99));
  r.latency_p999_us = to_microseconds(port->latency().percentile(0.999));

  if (tb.sampler() != nullptr) {
    tb.sampler()->stop();
    const auto snap = tb.telemetry().metrics.snapshot(tb.sim().now());
    if (telemetry::export_session_file(
            opt.telemetry_out, tb.telemetry().trace, snap, tb.sampler(),
            &tb.telemetry().stages, tb.slo_watchdog())) {
      std::printf("telemetry sidecar written to %s (%zu spans, %zu series, "
                  "%zu samples)\n",
                  opt.telemetry_out.c_str(), tb.telemetry().trace.size(),
                  snap.samples.size(), tb.sampler()->series().size());
    } else {
      std::fprintf(stderr, "failed to write telemetry sidecar %s\n",
                   opt.telemetry_out.c_str());
    }
    tb.stop_introspection();
  }
  return r;
}

/// The Fig 6 measurement protocol.
///
/// Throughput: each system at full offered load.  Latency: both systems
/// under the *same* offered load -- 85% of the DHL system's capacity (the
/// paper plots "processing latency under different load factors" against
/// one traffic source; a saturated CPU-only pipeline exhibits its
/// queue-bound latency there, which is the point of Fig 6b/6d).
struct CurvePoint {
  double throughput_gbps;
  PointResult latency_run;
};

inline constexpr double kLatencyLoadFactor = 0.85;

/// Capacity at full load, then latency at `offered_for_latency` (a fraction
/// of line rate; <= 0 means 85% of this system's own capacity).
inline CurvePoint run_capacity_then_latency(SingleNfOptions opt,
                                            double offered_for_latency = -1) {
  opt.offered = 1.0;
  const PointResult full = run_single_nf(opt);
  CurvePoint out;
  out.throughput_gbps = full.throughput_gbps;
  double fraction = offered_for_latency > 0
                        ? offered_for_latency
                        : kLatencyLoadFactor * full.throughput_gbps /
                              opt.link.gbps();
  if (fraction > 1.0) fraction = 1.0;
  if (fraction <= 0.0) fraction = 0.01;
  opt.offered = fraction;
  // Latency runs of the CPU pipeline use a small worker ring (latency at
  // saturation is queue-bound; 4096-deep rings would mean milliseconds).
  opt.cpu_ring_size = 64;
  out.latency_run = run_single_nf(opt);
  return out;
}

// --- output helpers -----------------------------------------------------------

inline void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// --- transfer-layer micro-bench (bench_micro --micro-out) ---------------------
//
// Measures the *host-side* cost of the runtime's transfer layer -- the
// Packer TX poll and Distributor RX poll -- in wall-clock time, with the
// simulated FPGA turned around in virtual time between the polls.

/// Parse `--micro-out=<path>` (empty when absent).  When present,
/// bench_micro skips the google-benchmark suite and runs only the transfer
/// micro-bench, writing its JSON to the given path.
inline std::string micro_out_arg(int argc, char** argv) {
  constexpr const char* kPrefix = "--micro-out=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, std::strlen(kPrefix)) == 0) {
      return argv[i] + std::strlen(kPrefix);
    }
  }
  return {};
}

struct TransferMicroOptions {
  /// 240 B of payload makes a 256 B wire record (16 B header), so 24
  /// records fill the 6 KB batch budget exactly: each burst below packs
  /// into two full batches with no ragged tail.
  std::uint32_t frame_len = 240;
  std::uint32_t burst = 48;
  int warmup_rounds = 64;
  int timed_rounds = 512;
};

struct TransferMicroResult {
  double ns_per_pkt = 0;          ///< host transfer-layer wall clock per packet
  double batches_per_sec = 0;     ///< batches through the host path per second
  double copied_bytes_ratio = 0;  ///< copy_bytes / (copy + zero_copy bytes)
  double pool_hit_rate = 0;       ///< BatchPool hits / acquires (timed phase)
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  /// Virtual-clock end-to-end latency percentiles from the introspection
  /// layer (timed rounds only).
  double e2e_p50_ns = 0;
  double e2e_p99_ns = 0;
  double e2e_p999_ns = 0;
  /// Per-stage decomposition, serialized JSON from the stage recorder.
  std::string stage_latency_json;
};

/// The transfer micro-bench, kept alive as an object so the introspection
/// A/B can interleave measured blocks on one instance: round-trip bursts of
/// pattern-matching packets through Packer -> (simulated FPGA) ->
/// Distributor, timing only the host-side poll calls.  The deferred SG
/// gather runs inside DmaEngine::submit() during the virtual-time advance:
/// that is the DMA engine's job, not an lcore's, so it is deliberately
/// outside the timed sections.
class TransferMicroBench {
 public:
  explicit TransferMicroBench(const TransferMicroOptions& opt)
      : opt_(opt), tel_(telemetry::make_telemetry()) {
    fpga::FpgaDeviceConfig fpga_cfg;
    fpga_cfg.telemetry = tel_;
    fpga_ = std::make_unique<fpga::FpgaDevice>(sim_, fpga_cfg);

    runtime::RuntimeConfig cfg;
    cfg.telemetry = tel_;
    cfg.num_sockets = 1;
    cfg.ibq_burst = opt.burst;
    const std::vector<std::string> patterns{"attack", "overflow"};
    auto automaton = std::make_shared<const match::AhoCorasick>(
        match::AhoCorasick::build(patterns));
    rt_ = std::make_unique<runtime::DhlRuntime>(
        sim_, cfg, accel::standard_module_database(automaton),
        std::vector<fpga::FpgaDevice*>{fpga_.get()});

    nf_ = rt_->register_nf("bench", 0);
    const runtime::AccHandle handle =
        rt_->search_by_name("pattern-matching", 0);
    sim_.run_until(sim_.now() + milliseconds(40));  // PR load
    if (!handle.valid() || !rt_->acc_ready(handle)) {
      throw std::runtime_error("transfer_micro: pattern-matching never ready");
    }

    pool_ = std::make_unique<netio::MbufPool>("micro", opt.burst * 4, 2048,
                                              0);
    std::vector<std::uint8_t> payload(opt.frame_len, '.');
    static constexpr char kText[] = "buffer overflow attack in progress";
    std::memcpy(payload.data(), kText,
                std::min(sizeof(kText) - 1, payload.size()));
    for (std::uint32_t i = 0; i < opt.burst; ++i) {
      netio::Mbuf* m = pool_->alloc();
      m->assign(payload);
      m->set_nf_id(nf_);
      m->set_acc_id(handle.acc_id);
      m->set_rx_timestamp(1);
      pkts_.push_back(m);
    }
    out_.resize(opt.burst * 2, nullptr);
  }

  ~TransferMicroBench() {
    for (netio::Mbuf* m : pkts_) m->release();
  }
  TransferMicroBench(const TransferMicroBench&) = delete;
  TransferMicroBench& operator=(const TransferMicroBench&) = delete;

  // One round: send a burst, TX poll (flushes the first full batch), age
  // the still-open second batch past batch_timeout and TX poll again
  // (timeout flush), let the FPGA model turn both batches around in
  // virtual time, RX poll, drain the OBQ and recirculate the mbufs.
  void round(bool timed) {
    using Clock = std::chrono::steady_clock;
    auto& ibq = rt_->get_shared_ibq(nf_);
    auto& obq = rt_->get_private_obq(nf_);
    // Fresh ingress stamps per round (outside the timed sections): the
    // recirculated mbufs would otherwise report ever-growing end-to-end
    // latency against their original stamp.  Stamps are staggered backwards
    // across the burst with a deterministic per-round spacing -- packets
    // arrive over an interval, not at one instant -- so the e2e histogram
    // records a real distribution.  (One shared stamp plus fixed virtual
    // advances collapsed every sample to a single value: the degenerate
    // p50 == p99 == p999 earlier BENCH_micro.json snapshots showed.)
    const Picos spacing = (100 + 40 * (round_seq_ % 13)) * kPicosPerNano;
    ++round_seq_;
    const Picos base = sim_.now();
    for (std::size_t i = 0; i < pkts_.size(); ++i) {
      const Picos age = spacing * (pkts_.size() - 1 - i);
      pkts_[i]->set_rx_timestamp(base > age ? base - age : 1);
    }
    if (runtime::DhlRuntime::send_packets(ibq, pkts_.data(), pkts_.size()) !=
        pkts_.size()) {
      throw std::runtime_error("transfer_micro: IBQ rejected burst");
    }
    const auto t0 = Clock::now();
    rt_->packer().poll(0);
    const auto t1 = Clock::now();
    sim_.run_until(sim_.now() + microseconds(200));  // > batch_timeout
    const auto t2 = Clock::now();
    rt_->packer().poll(0);
    const auto t3 = Clock::now();
    // Advance virtual time in small quanta until both batches' completions
    // have landed, instead of a fixed 400 us jump.  The fixed advance put
    // every delivery exactly 400 us after submit regardless of when the
    // simulated FPGA finished, which billed ~394 us of idle wait to the
    // distributor stage minimum and flattened the e2e distribution.
    const Picos deadline = sim_.now() + microseconds(2000);
    while (rt_->distributor().completions_pending(0) < 2 &&
           sim_.now() < deadline) {
      sim_.run_until(sim_.now() + microseconds(5));
    }
    const auto t4 = Clock::now();
    rt_->distributor().poll(0);
    const auto t5 = Clock::now();
    sim_.run_until(sim_.now() + microseconds(10));
    const std::size_t n =
        runtime::DhlRuntime::receive_packets(obq, out_.data(), out_.size());
    if (n != pkts_.size()) {
      throw std::runtime_error("transfer_micro: round lost packets");
    }
    std::copy_n(out_.data(), n, pkts_.data());
    if (timed) {
      host_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              (t1 - t0) + (t3 - t2) + (t5 - t4))
              .count());
    }
  }

  /// Timed host-ns for a block of rounds (for interleaved A/Bs).
  std::uint64_t run_block(int rounds) {
    const std::uint64_t before = host_ns_;
    for (int i = 0; i < rounds; ++i) round(true);
    return host_ns_ - before;
  }

  const TransferMicroOptions& options() const { return opt_; }
  runtime::DhlRuntime& runtime() { return *rt_; }
  telemetry::Telemetry& telemetry() { return *tel_; }
  sim::Simulator& simulator() { return sim_; }
  std::uint64_t host_ns() const { return host_ns_; }

 private:
  TransferMicroOptions opt_;
  sim::Simulator sim_;
  std::shared_ptr<telemetry::Telemetry> tel_;
  std::unique_ptr<fpga::FpgaDevice> fpga_;
  std::unique_ptr<runtime::DhlRuntime> rt_;
  std::unique_ptr<netio::MbufPool> pool_;
  netio::NfId nf_ = 0;
  std::vector<netio::Mbuf*> pkts_;
  std::vector<netio::Mbuf*> out_;
  std::uint64_t host_ns_ = 0;
  std::uint64_t round_seq_ = 0;  ///< varies the per-round arrival spacing
};

inline TransferMicroResult run_transfer_micro(const TransferMicroOptions& opt) {
  TransferMicroBench bench{opt};
  auto& rt = bench.runtime();
  auto& tel = bench.telemetry();
  auto& sim = bench.simulator();

  for (int i = 0; i < opt.warmup_rounds; ++i) bench.round(false);
  // Timed-phase percentiles must not include warm-up traffic.
  tel.stages.reset();

  auto counter = [&](const char* name) {
    const auto snap = tel.metrics.snapshot(sim.now());
    const auto* s = snap.find(name);
    return s != nullptr ? s->value : 0.0;
  };
  const double batches0 = counter("dhl.runtime.batches_to_fpga");
  const double copy0 = counter("dhl.copy_bytes");
  const double zero0 = counter("dhl.zero_copy_bytes");
  const std::uint64_t hits0 = rt.batch_pools().pool(0).hits();
  const std::uint64_t miss0 = rt.batch_pools().pool(0).misses();

  for (int i = 0; i < opt.timed_rounds; ++i) bench.round(true);
  const std::uint64_t host_ns = bench.host_ns();

  const double batches1 = counter("dhl.runtime.batches_to_fpga");
  const double copied = counter("dhl.copy_bytes") - copy0;
  const double zeroed = counter("dhl.zero_copy_bytes") - zero0;
  const double hits =
      static_cast<double>(rt.batch_pools().pool(0).hits() - hits0);
  const double misses =
      static_cast<double>(rt.batch_pools().pool(0).misses() - miss0);

  TransferMicroResult r;
  r.packets = static_cast<std::uint64_t>(opt.timed_rounds) * opt.burst;
  r.batches = static_cast<std::uint64_t>(batches1 - batches0);
  r.ns_per_pkt = static_cast<double>(host_ns) / static_cast<double>(r.packets);
  r.batches_per_sec =
      host_ns > 0
          ? static_cast<double>(r.batches) / (static_cast<double>(host_ns) * 1e-9)
          : 0;
  r.copied_bytes_ratio = (copied + zeroed) > 0 ? copied / (copied + zeroed) : 0;
  r.pool_hit_rate = (hits + misses) > 0 ? hits / (hits + misses) : 0;
  const telemetry::HdrHistogram& e2e =
      tel.stages.stage(telemetry::Stage::kEndToEnd);
  if (e2e.count() > 0) {
    r.e2e_p50_ns = to_nanoseconds(e2e.percentile(0.50));
    r.e2e_p99_ns = to_nanoseconds(e2e.percentile(0.99));
    r.e2e_p999_ns = to_nanoseconds(e2e.percentile(0.999));
  }
  std::ostringstream stages_os;
  tel.stages.write_json(stages_os);
  r.stage_latency_json = stages_os.str();
  return r;
}

// --- host A/B: interleaved paired ratios -----------------------------------
//
// Every host-clock A/B of bench_micro -- introspection on/off, each vector
// kernel scalar/native, the quarantine fallback path scalar/native -- uses
// paired_ab.  The two blocks of a pair run back to back, so slow drift
// (co-tenant load, frequency scaling, thermal) scales both alike and their
// ratio cancels it; an interference burst that hits one block only gives an
// outlier ratio that the median discards.  Measuring one arm to completion
// before the other hands any drift to a single arm.

/// Result of paired_ab.  Ratios are arm 0's cost over arm 1's.
struct PairedAb {
  double cost[2] = {0, 0};  ///< median block cost of arm 0 and of arm 1
  double ratio = 0;         ///< median of the per-pair ratios
  double ratio_q1 = 0;      ///< first quartile of the per-pair ratios
  double ratio_q3 = 0;      ///< third quartile of the per-pair ratios
  int pairs = 0;
};

/// The `q`-quantile of `v`, interpolating between order statistics.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Run `pairs` pairs of one block per arm.  `block(arm)` sets arm 0 or 1 up
/// and returns the cost of one timed block.  The arm that goes first
/// alternates from pair to pair, so neither arm always runs second.
inline PairedAb paired_ab(int pairs, const std::function<double(int)>& block) {
  std::vector<double> costs[2];
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double cost[2];
    const int first = p % 2;
    cost[first] = block(first);
    cost[1 - first] = block(1 - first);
    costs[0].push_back(cost[0]);
    costs[1].push_back(cost[1]);
    ratios.push_back(cost[0] / cost[1]);
  }
  PairedAb ab;
  ab.pairs = pairs;
  ab.cost[0] = quantile(costs[0], 0.5);
  ab.cost[1] = quantile(costs[1], 0.5);
  ab.ratio = quantile(ratios, 0.5);
  ab.ratio_q1 = quantile(ratios, 0.25);
  ab.ratio_q3 = quantile(ratios, 0.75);
  return ab;
}

/// Hot-path cost of the introspection layer, in ns/pkt of the transfer
/// micro-bench: arm 0 runs with the stage recorder and the flight recorder
/// on, arm 1 with both off.  CI gates `100 * (ratio - 1)` < 2%.
///
/// Both arms toggle the layer's flags on ONE live pipeline.  Two separate
/// pipeline instances land at different heap addresses, and the resulting
/// cache/TLB conflicts are a systematic per-instance bias of several ns/pkt
/// -- an A/A test between two identical instances showed +-4 ns/pkt,
/// swamping a sub-ns true cost.  One instance has no such bias.
inline PairedAb run_introspection_ab(int pairs = 128,
                                     int rounds_per_block = 16) {
  TransferMicroOptions opt;
  TransferMicroBench bench{opt};
  auto& tel = bench.telemetry();
  for (int i = 0; i < opt.warmup_rounds; ++i) bench.round(false);

  const double pkts_per_block =
      static_cast<double>(rounds_per_block) * opt.burst;
  const PairedAb ab = paired_ab(pairs, [&](int arm) {
    tel.stages.set_enabled(arm == 0);
    tel.recorder.set_enabled(arm == 0);
    // One untimed settling round absorbs the toggle transient (cold
    // histogram/ring lines, branch predictor retraining) so the measured
    // block sees steady state for its arm.
    bench.round(false);
    return static_cast<double>(bench.run_block(rounds_per_block)) /
           pkts_per_block;
  });
  tel.stages.set_enabled(true);
  tel.recorder.set_enabled(true);
  return ab;
}

// ---------------------------------------------------------------------------
// Per-kernel scalar-vs-vector A/B (`bench_micro --kernel-ab`): each row pairs
// one registered CPU vector kernel (common/simd.hpp registry) against its
// scalar reference by flipping the process-wide ISA cap between arms, on the
// same buffers in the same process.  The speedups land in BENCH_micro.json
// under "kernels" and CI's Release perf smoke gates the AES-CTR and
// pattern-matching rows.

/// One kernel's paired measurement.  `isa` is the tier the kernel selects on
/// this host when uncapped (matches the dhl.simd.kernel_isa gauge).
struct KernelAbRow {
  std::string kernel;
  std::string isa;
  std::uint64_t bytes = 0;  ///< payload bytes per call
  /// ns per call; arm 0 = scalar cap, arm 1 = ambient cap, so the ratio
  /// is the vector kernel's speedup.
  PairedAb ab;
};

/// Measure every registered kernel; restores the ambient ISA cap on return
/// (so a DHL_SIMD override stays respected -- under DHL_SIMD=scalar both
/// arms run the reference path and every speedup reads ~1.0 by design).
inline std::vector<KernelAbRow> run_kernel_ab(int pairs = 40) {
  namespace simd = common::simd;
  const simd::Isa ambient = simd::cap();
  Xoshiro256 rng{0x5EED5EEDull};

  auto isa_of = [](const char* kernel) -> std::string {
    for (const simd::KernelInfo& k : simd::kernel_report()) {
      if (std::strcmp(k.name, kernel) == 0) return simd::to_string(k.selected);
    }
    return simd::to_string(simd::Isa::kScalar);
  };

  std::vector<KernelAbRow> rows;
  auto measure = [&](const char* kernel, std::uint64_t bytes, int iters,
                     const std::function<void()>& fn) {
    using Clock = std::chrono::steady_clock;
    KernelAbRow r{kernel, isa_of(kernel), bytes, {}};
    r.ab = paired_ab(pairs, [&](int arm) {
      simd::set_cap(arm == 0 ? simd::Isa::kScalar : ambient);
      const auto t0 = Clock::now();
      for (int i = 0; i < iters; ++i) fn();
      const std::chrono::duration<double, std::nano> ns = Clock::now() - t0;
      return ns.count() / iters;
    });
    simd::set_cap(ambient);  // the next row's isa_of reads under the cap
    rows.push_back(std::move(r));
  };

  {  // crc32c: one MTU frame, the Distributor integrity-gate shape.
    std::vector<std::uint8_t> buf(1500);
    rng.fill(buf.data(), buf.size());
    volatile std::uint32_t sink = 0;
    measure("crc32c", buf.size(), 400,
            [&] { sink = common::crc32c(buf); });
    (void)sink;
  }
  {  // aes256_ctr: one MTU frame through the IPsec keystream path.
    std::array<std::uint8_t, 32> key{};
    rng.fill(key.data(), key.size());
    const crypto::Aes256 cipher{key};
    const std::array<std::uint8_t, 16> ctr{};
    std::vector<std::uint8_t> in(1500), out(1500);
    rng.fill(in.data(), in.size());
    measure("aes256_ctr", in.size(), 200,
            [&] { crypto::aes256_ctr(cipher, ctr, in, out); });
  }
  {  // ac_multilane: a full lane group of MTU payloads, the fallback-run
    // shape (random patterns approximate a small Snort content set).
    std::vector<std::string> patterns;
    for (int i = 0; i < 48; ++i) {
      std::string p;
      const std::size_t len = 4 + rng.bounded(13);
      for (std::size_t j = 0; j < len; ++j) {
        p.push_back(static_cast<char>('a' + rng.bounded(26)));
      }
      patterns.push_back(std::move(p));
    }
    const match::AhoCorasick ac =
        match::AhoCorasick::build(patterns, /*case_insensitive=*/true);
    constexpr std::size_t kLanes = match::AhoCorasick::kLanes;
    std::vector<std::vector<std::uint8_t>> texts(
        kLanes, std::vector<std::uint8_t>(1500));
    for (auto& t : texts) rng.fill(t.data(), t.size());
    std::vector<std::span<const std::uint8_t>> spans(texts.begin(),
                                                     texts.end());
    std::vector<std::vector<match::PatternMatch>> hits(kLanes);
    // Short blocks (~0.5 ms): the slowest kernel here is also the one most
    // sensitive to co-tenant interference, and short pairs keep a burst of
    // it inside one pair, whose ratio the median then discards.
    measure("ac_multilane", kLanes * 1500, 40, [&] {
      for (auto& h : hits) h.clear();
      ac.find_all_multi(spans, hits);
    });
  }
  {  // batch_copy: one 240 B record payload -- the linearize() copy shape at
    // the micro-bench frame size, inside the kCopyVectorMax window where the
    // vector loop actually dispatches.  The scalar arm is std::memcpy (itself
    // vectorized), so this row reports the margin over libc, not a large
    // ratio; copies past the window defer to memcpy and are 1.0x by design.
    std::vector<std::uint8_t> src(240), dst(240);
    rng.fill(src.data(), src.size());
    measure("batch_copy", src.size(), 4000, [&] {
      common::simd::copy_bytes(dst.data(), src.data(), src.size());
    });
  }
  return rows;
}

/// End-to-end wall-ns/pkt of the fully-quarantined software fallback path,
/// vector kernels on vs capped to scalar.
struct FallbackAb {
  /// ns/pkt; arm 0 = scalar cap, arm 1 = ambient cap.
  PairedAb ab;
  std::uint64_t fallback_pkts = 0;  ///< served via fallback across both arms
  /// Fallback callback invocations across both arms: fallback_pkts /
  /// fallback_calls is the run length the multi-lane kernel actually sees.
  std::uint64_t fallback_calls = 0;
};

/// Quarantine stress A/B: every pattern-matching replica is held in
/// permanent quarantine by a device fault, so bursts flow Packer ->
/// FallbackRouter -> run fallback (PatternMatchingModule::process_run, i.e.
/// the multi-lane AC kernel) and back out the OBQ.  The timed section
/// is the Packer poll that runs the fallback; flipping the ISA cap between
/// arms shows how much of the kernel speedup survives runtime framing.
/// Frame/burst are chosen so each 6 KB batch holds exactly kLanes records:
/// the fallback sees full lane groups.
inline FallbackAb run_fallback_quarantine_ab(int pairs = 24,
                                             int rounds_per_block = 8) {
  namespace simd = common::simd;
  using netio::Mbuf;
  constexpr std::uint32_t kFrame = 720;   // 8 x (16 + 720) = 5888 <= 6144
  constexpr std::uint32_t kBurst = 32;    // four full batches per round

  sim::Simulator sim;
  fpga::FpgaDeviceConfig fc;
  fpga::FpgaDevice fpga{sim, fc};
  runtime::RuntimeConfig cfg;
  cfg.num_sockets = 1;
  cfg.ibq_burst = kBurst;
  const std::vector<std::string> patterns{"attack", "overflow", "evil"};
  auto automaton = std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(patterns, /*case_insensitive=*/true));
  runtime::DhlRuntime rt{sim, cfg, accel::standard_module_database(automaton),
                         std::vector<fpga::FpgaDevice*>{&fpga}};
  const netio::NfId nf = rt.register_nf("fallback-ab", 0);
  const runtime::AccHandle handle = rt.search_by_name("pattern-matching", 0);
  sim.run_until(sim.now() + milliseconds(40));
  if (!handle.valid() || !rt.acc_ready(handle)) {
    throw std::runtime_error("fallback_ab: pattern-matching never ready");
  }

  // Permanent quarantine: every dispatch attempt re-fails the device, so
  // the hardware path stays unreachable for the whole measurement.
  runtime::FaultInjector inj{sim, rt.telemetry(), /*seed=*/1234};
  rt.set_fault_injector(&inj);
  inj.add_rule({.site = fpga::FaultSite::kDevice,
                .kind = fpga::FaultKind::kDeviceUnhealthy});

  accel::PatternMatchingModule soft{automaton};
  std::uint64_t calls = 0;
  rt.register_fallback(nf, "pattern-matching",
                       [&](std::span<Mbuf* const> pkts) {
                         ++calls;
                         soft.process_run(pkts);
                       });

  netio::MbufPool pool{"fallback-ab", kBurst * 4, 2048, 0};
  // Per-packet random payloads, a few with embedded pattern text: a
  // constant filler byte would pin the DFA walk to one hot table column
  // and hide the multi-lane kernel's real memory-level parallelism.
  Xoshiro256 payload_rng{0xFA11BACull};
  std::vector<Mbuf*> pkts;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    std::vector<std::uint8_t> payload(kFrame);
    payload_rng.fill(payload.data(), payload.size());
    if (i % 4 == 0) {
      static constexpr char kText[] = "buffer OVERFLOW attack in progress";
      std::memcpy(payload.data() + 64, kText, sizeof(kText) - 1);
    }
    Mbuf* m = pool.alloc();
    m->assign(payload);
    m->set_nf_id(nf);
    m->set_acc_id(handle.acc_id);
    pkts.push_back(m);
  }
  std::vector<Mbuf*> out(kBurst * 2, nullptr);

  auto& ibq = rt.get_shared_ibq(nf);
  auto& obq = rt.get_private_obq(nf);
  // One round: burst in, two TX polls (immediate flush + timeout flush of
  // any open batch) with the fallback running inside them, drain the OBQ,
  // recirculate.  Returns the host ns spent in the polls.
  auto round = [&]() -> std::uint64_t {
    using Clock = std::chrono::steady_clock;
    for (Mbuf* m : pkts) {
      m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    }
    if (runtime::DhlRuntime::send_packets(ibq, pkts.data(), pkts.size()) !=
        pkts.size()) {
      throw std::runtime_error("fallback_ab: IBQ rejected burst");
    }
    const auto t0 = Clock::now();
    rt.packer().poll(0);
    const auto t1 = Clock::now();
    sim.run_until(sim.now() + microseconds(200));  // > batch_timeout
    const auto t2 = Clock::now();
    rt.packer().poll(0);
    const auto t3 = Clock::now();
    const std::size_t n =
        runtime::DhlRuntime::receive_packets(obq, out.data(), out.size());
    if (n != pkts.size()) {
      throw std::runtime_error("fallback_ab: round lost packets");
    }
    std::copy_n(out.data(), n, pkts.data());
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>((t1 - t0) +
                                                             (t3 - t2))
            .count());
  };

  const simd::Isa ambient = simd::cap();
  FallbackAb ab;
  for (int i = 0; i < 4; ++i) round();  // warmup (also primes quarantine)
  const double pkts_per_block =
      static_cast<double>(kBurst) * rounds_per_block;
  ab.ab = paired_ab(pairs, [&](int arm) {
    simd::set_cap(arm == 0 ? simd::Isa::kScalar : ambient);
    std::uint64_t ns = 0;
    for (int r = 0; r < rounds_per_block; ++r) ns += round();
    return static_cast<double>(ns) / pkts_per_block;
  });
  simd::set_cap(ambient);
  ab.fallback_pkts = static_cast<std::uint64_t>(
      rt.telemetry().metrics.snapshot().sum("dhl.fallback.pkts"));
  ab.fallback_calls = calls;
  for (Mbuf* m : pkts) m->release();
  return ab;
}

/// Run both kernel-level A/Bs, print the tables.  Returns the rows so the
/// JSON writer can embed them; `bench_micro --kernel-ab` runs exactly this.
inline std::vector<KernelAbRow> run_kernel_ab_suite(FallbackAb* fb_out =
                                                        nullptr) {
  print_title("CPU vector kernels: scalar vs dispatched ISA (median ns)");
  const std::vector<KernelAbRow> rows = run_kernel_ab();
  std::printf("%-14s %-8s %12s %12s %9s %15s %8s\n", "kernel", "isa",
              "scalar-ns", "vector-ns", "speedup", "[q1, q3]", "bytes");
  print_rule(84);
  for (const KernelAbRow& r : rows) {
    std::printf("%-14s %-8s %12.1f %12.1f %8.2fx  [%5.2f, %5.2f] %8llu\n",
                r.kernel.c_str(), r.isa.c_str(), r.ab.cost[0], r.ab.cost[1],
                r.ab.ratio, r.ab.ratio_q1, r.ab.ratio_q3,
                static_cast<unsigned long long>(r.bytes));
  }

  print_title("quarantine fallback path: e2e ns/pkt, scalar cap vs native");
  const FallbackAb fb = run_fallback_quarantine_ab();
  std::printf("scalar cap:  %8.1f ns/pkt\n", fb.ab.cost[0]);
  std::printf(
      "native ISA:  %8.1f ns/pkt  (%.2fx [%.2f, %.2f], %llu pkts via "
      "fallback in %llu calls)\n",
      fb.ab.cost[1], fb.ab.ratio, fb.ab.ratio_q1, fb.ab.ratio_q3,
      static_cast<unsigned long long>(fb.fallback_pkts),
      static_cast<unsigned long long>(fb.fallback_calls));
  if (fb_out != nullptr) *fb_out = fb;
  return rows;
}

inline bool write_transfer_micro_json(
    const std::string& path, const TransferMicroOptions& opt,
    const TransferMicroResult& zc, const PairedAb* intro = nullptr,
    const std::vector<KernelAbRow>* kernels = nullptr,
    const FallbackAb* fb = nullptr) {
  std::ofstream f{path};
  if (!f) return false;
  f << std::fixed << std::setprecision(4);
  f << "{\n"
    << "  \"bench\": \"transfer_micro\",\n"
    << "  \"workload\": \"pattern-matching\",\n"
    << "  \"frame_len\": " << opt.frame_len << ",\n"
    << "  \"burst\": " << opt.burst << ",\n"
    << "  \"timed_rounds\": " << opt.timed_rounds << ",\n"
    << "  \"zero_copy\": {\n"
    << "    \"ns_per_pkt\": " << zc.ns_per_pkt << ",\n"
    << "    \"batches_per_sec\": " << zc.batches_per_sec << ",\n"
    << "    \"copied_bytes_ratio\": " << zc.copied_bytes_ratio << ",\n"
    << "    \"pool_hit_rate\": " << zc.pool_hit_rate << ",\n"
    << "    \"packets\": " << zc.packets << ",\n"
    << "    \"batches\": " << zc.batches << ",\n"
    << "    \"e2e_p50_ns\": " << zc.e2e_p50_ns << ",\n"
    << "    \"e2e_p99_ns\": " << zc.e2e_p99_ns << ",\n"
    << "    \"e2e_p999_ns\": " << zc.e2e_p999_ns << "\n"
    << "  },\n";
  // Per-stage decomposition of the run (virtual clock): the
  // ibq_wait/pack/dma_tx/fpga/dma_rx/distributor seams of DESIGN.md
  // section 7, each with count/min/max/mean/p50/p99/p999.
  if (!zc.stage_latency_json.empty()) {
    f << "  \"stage_latency\": " << zc.stage_latency_json << ",\n";
  }
  // Every A/B row reports the quartiles of its per-pair ratios next to the
  // median, so a reader sees the spread behind the gated number.
  auto quartiles = [](const PairedAb& ab) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(4) << "\"ratio_q1\": " << ab.ratio_q1
       << ", \"ratio_q3\": " << ab.ratio_q3;
    return os.str();
  };
  if (intro != nullptr) {
    const double baseline = intro->cost[1];
    f << "  \"introspection\": {\n"
      << "    \"baseline_ns_per_pkt\": " << baseline << ",\n"
      << "    \"delta_ns_per_pkt\": " << baseline * (intro->ratio - 1) << ",\n"
      // CI's Release perf gate asserts this stays under 2%.
      << "    \"overhead_percent\": " << 100 * (intro->ratio - 1) << ",\n"
      << "    " << quartiles(*intro) << ",\n"
      << "    \"pairs\": " << intro->pairs << "\n"
      << "  },\n";
  }
  // Per-kernel scalar-vs-vector speedups (run_kernel_ab): CI's Release
  // perf gate asserts aes256_ctr >= 3x and ac_multilane >= 2x.
  if (kernels != nullptr && !kernels->empty()) {
    f << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels->size(); ++i) {
      const KernelAbRow& r = (*kernels)[i];
      f << "    {\"kernel\": \"" << r.kernel << "\", \"isa\": \"" << r.isa
        << "\", \"scalar_ns\": " << r.ab.cost[0]
        << ", \"vector_ns\": " << r.ab.cost[1]
        << ", \"speedup\": " << r.ab.ratio << ", " << quartiles(r.ab)
        << ", \"bytes\": " << r.bytes << "}"
        << (i + 1 < kernels->size() ? "," : "") << "\n";
    }
    f << "  ],\n";
  }
  if (fb != nullptr) {
    f << "  \"fallback\": {\n"
      << "    \"scalar_ns_per_pkt\": " << fb->ab.cost[0] << ",\n"
      << "    \"vector_ns_per_pkt\": " << fb->ab.cost[1] << ",\n"
      << "    \"speedup\": " << fb->ab.ratio << ",\n"
      << "    " << quartiles(fb->ab) << ",\n"
      << "    \"fallback_pkts\": " << fb->fallback_pkts << ",\n"
      // CI's Release perf gate asserts fallback_pkts / fallback_calls >= 8:
      // the A/B only measures the vector kernel if it sees lane groups.
      << "    \"fallback_calls\": " << fb->fallback_calls << "\n"
      << "  },\n";
  }
  // CI's Release perf gate asserts this is false: the lifecycle ledger must
  // be compiled out of the build whose ns/pkt numbers are gated.
  f << "  \"ledger_compiled\": "
    << (runtime::kLedgerCompiled ? "true" : "false") << "\n"
    << "}\n";
  return f.good();
}

/// Run the kernel, transfer and introspection benches, print a summary,
/// write the JSON.  Used by bench_micro when `--micro-out=<path>` is given.
inline bool run_transfer_micro_suite(const std::string& out_path) {
  // Kernel A/B first, on a fresh heap: the multi-lane AC stepper's win is
  // memory-level parallelism, and the transfer benches' allocator churn
  // costs it ~40% (measured 1.7x after vs 2.8x before).  Running kernels
  // first matches the standalone --kernel-ab conditions CI developers see.
  FallbackAb fb;
  const std::vector<KernelAbRow> kernels = run_kernel_ab_suite(&fb);

  print_title("transfer-layer micro: zero-copy batch path");
  TransferMicroOptions opt;
  const TransferMicroResult zc = run_transfer_micro(opt);

  std::printf("%10s %14s %14s %14s\n", "ns/pkt", "batches/sec",
              "copied-ratio", "pool-hit-rate");
  print_rule(55);
  std::printf("%10.1f %14.0f %14.3f %14.3f\n", zc.ns_per_pkt,
              zc.batches_per_sec, zc.copied_bytes_ratio, zc.pool_hit_rate);
  std::printf("e2e latency (virtual): p50 %.0f ns, p99 %.0f ns, "
              "p999 %.0f ns\n",
              zc.e2e_p50_ns, zc.e2e_p99_ns, zc.e2e_p999_ns);

  print_title("introspection layer: ns/pkt overhead, on vs off");
  const PairedAb intro = run_introspection_ab();
  std::printf("baseline (off):      %7.2f ns/pkt\n", intro.cost[1]);
  std::printf("introspection cost:  %+7.2f%% (on/off ratio %.4f [%.4f, "
              "%.4f]), median of %d interleaved pairs\n",
              100 * (intro.ratio - 1), intro.ratio, intro.ratio_q1,
              intro.ratio_q3, intro.pairs);

  if (!write_transfer_micro_json(out_path, opt, zc, &intro, &kernels, &fb)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return false;
  }
  std::printf("micro-bench JSON written to %s\n", out_path.c_str());
  return true;
}

}  // namespace dhl::bench
