#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/ipsec_common.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/fpga/accelerator.hpp"
#include "dhl/match/ruleset.hpp"
#include "dhl/nf/chain.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/sim/lcore.hpp"
#include "verify.hpp"

namespace dhl::perfbench {

namespace {

constexpr Picos kWarmup = milliseconds(3);
/// The capacity window of EXPERIMENTS.md's protocol.  The latency window is
/// longer so that every workload has at least ten samples beyond p99.9.
constexpr Picos kCapacityWindow = milliseconds(6);
constexpr Picos kLatencyWindow = milliseconds(10);
constexpr Picos kDrainStep = microseconds(200);
constexpr Picos kDrainMax = milliseconds(20);

/// CPU time of the calling thread.  The simulator is single-threaded, so
/// this is the host work it did, without the time the OS gave to other
/// processes on a shared machine.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- traced accelerator modules ----------------------------------------------

/// Decorator over a database module: brackets process() for the tracer and
/// forwards everything else, so the device model sees the same module.
class TimedModule final : public fpga::AcceleratorModule {
 public:
  TimedModule(fpga::ModulePtr inner, LayerTracer* tracer, int layer)
      : inner_{std::move(inner)}, tracer_{tracer}, layer_{layer} {}

  const std::string& name() const override { return inner_->name(); }
  fpga::ModuleResources resources() const override {
    return inner_->resources();
  }
  fpga::ModuleTiming timing() const override { return inner_->timing(); }
  std::vector<fpga::ModuleTiming> stage_timings() const override {
    return inner_->stage_timings();
  }
  void configure(std::span<const std::uint8_t> config) override {
    inner_->configure(config);
  }
  fpga::ProcessResult process(std::span<std::uint8_t> data) override {
    LayerScope scope{tracer_, layer_};
    scope.count(1, data.size());
    return inner_->process(data);
  }

 private:
  fpga::ModulePtr inner_;
  LayerTracer* tracer_;
  int layer_;
};

/// Wrap every factory of `db` in a TimedModule (layer "accel.<hf>").  Fused
/// chains are composed from these factories, so their stages are wrapped
/// one by one.
fpga::BitstreamDatabase traced_database(const fpga::BitstreamDatabase& db,
                                        LayerTracer& tracer) {
  fpga::BitstreamDatabase out;
  for (const std::string& name : db.names()) {
    fpga::PartialBitstream b = *db.find(name);
    const int layer = tracer.layer("accel." + name);
    b.factory = [inner = b.factory, t = &tracer, layer] {
      return std::make_unique<TimedModule>(inner(), t, layer);
    };
    out.add(std::move(b));
  }
  return out;
}

// --- the rig -----------------------------------------------------------------

std::uint64_t port_seed(std::uint64_t seed, std::size_t port) {
  // splitmix64 step: distinct, well-mixed streams per (seed, port).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + port + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const std::vector<std::string> kAttackStrings{
    "/etc/passwd", "cmd.exe", "union select", "/bin/sh",
    "xc3511",      "Nikto",   "masscan",      "dnscat"};

/// Per-workload substrate: the testbed (simulator, pools, ports, FPGA), the
/// runtime over a possibly traced module database, the bench-owned
/// transfer lcores and the NFs.  Members are declared in dependency order
/// so destruction runs NFs -> lcores -> runtime -> testbed.
class Rig {
 public:
  Rig(Workload w, std::uint64_t seed, LayerTracer* tracer,
      const TraceLayers* layers)
      : seed_{seed}, tracer_{tracer}, layers_{layers} {
    tb_ = std::make_unique<nf::Testbed>(nf::TestbedConfig{});
    switch (w) {
      case Workload::kNids64b:
        build_nids_64b();
        break;
      case Workload::kIpsecNidsImix:
        build_ipsec_nids_imix();
        break;
      case Workload::kCompNcrypt1500:
        build_compncrypt();
        break;
    }
    // Partial-reconfiguration loads, on the virtual clock.
    for (int i = 0; i < 30 && !ready(); ++i) tb_->run_for(milliseconds(10));
    if (!ready()) throw std::runtime_error("hardware functions never loaded");
    start_transfer_cores();
    for (auto& nf : nfs_) nf->start();
    if (chain_) chain_->start();
  }

  sim::Simulator& sim() { return tb_->sim(); }
  nf::Testbed& testbed() { return *tb_; }
  const std::vector<std::shared_ptr<PacketTap>>& taps() const { return taps_; }

  /// Line rate (`offered` == 1) is CBR.  Below it, gaps are the frame's
  /// wire time plus a seeded exponential extra with the mean that gives
  /// the offered rate: Poisson-like arrivals that never exceed the wire.
  void start_traffic(double offered) {
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      netio::TrafficConfig t = traffic_[i];
      t.seed = port_seed(seed_, i);
      t.stream_digest = true;
      if (offered < 1.0) {
        t.gap_model = [rng = std::make_shared<dhl::Xoshiro256>(~t.seed),
                       stretch = 1.0 / offered - 1.0](Picos, Picos line_gap) {
          const double extra = -std::log(1.0 - rng->uniform()) * stretch *
                               static_cast<double>(line_gap);
          return line_gap + static_cast<Picos>(extra);
        };
      }
      ports_[i]->start_traffic(t, offered < 1.0 ? 1.0 : offered);
    }
  }
  void stop_traffic() {
    for (netio::NicPort* p : ports_) p->stop_traffic();
  }
  const std::vector<netio::NicPort*>& ports() const { return ports_; }

  std::uint32_t digest() const {
    std::uint32_t d = 0;
    for (netio::NicPort* p : ports_) {
      d = d * 0x01000193u ^ p->factory()->stream_digest();
    }
    return d;
  }

  std::vector<sim::Lcore*> nf_cores() {
    std::vector<sim::Lcore*> out;
    for (auto& nf : nfs_) {
      for (sim::Lcore* c : nf->cores()) out.push_back(c);
    }
    if (chain_) out = chain_->cores();
    return out;
  }
  std::vector<sim::Lcore*> tx_cores() { return pick_cores(0); }
  std::vector<sim::Lcore*> rx_cores() { return pick_cores(1); }

  std::uint64_t packer_polls() const { return packer_polls_; }
  std::uint64_t packer_busy_polls() const { return packer_busy_polls_; }

  /// Packets dropped inside the NFs (IBQ refusals, prep/post verdicts).
  std::uint64_t nf_drops() const {
    std::uint64_t d = 0;
    for (const auto& nf : nfs_) {
      const nf::DhlNfStats& s = nf->stats();
      d += s.ibq_drops + s.prep_drops + s.post_drops;
    }
    if (chain_) d += chain_->stats().dropped + chain_->stats().ibq_drops;
    return d;
  }
  /// Packets the NFs took off their ports, and of those the IBQ refused.
  void nf_ingress(std::uint64_t* rx, std::uint64_t* ibq_drops) const {
    *rx = *ibq_drops = 0;
    for (const auto& nf : nfs_) {
      *rx += nf->stats().rx_pkts;
      *ibq_drops += nf->stats().ibq_drops;
    }
    if (chain_) {
      *rx += chain_->stats().rx_pkts;
      *ibq_drops += chain_->stats().ibq_drops;
    }
  }
  double fused_share() const {
    if (!chain_ || chain_->stats().offloads == 0) return 0;
    return static_cast<double>(chain_->stats().fused_offloads) /
           static_cast<double>(chain_->stats().offloads);
  }

 private:
  bool ready() const {
    for (const auto& nf : nfs_) {
      if (!nf->ready()) return false;
    }
    return !chain_ || chain_->ready();
  }

  void init_runtime(std::shared_ptr<const match::AhoCorasick> automaton) {
    runtime::RuntimeConfig cfg;
    cfg.timing = tb_->timing();
    cfg.telemetry = tb_->telemetry_ptr();
    fpga::BitstreamDatabase db =
        accel::standard_module_database(std::move(automaton));
    if (tracer_ != nullptr) db = traced_database(db, *tracer_);
    rt_ = std::make_unique<runtime::DhlRuntime>(
        tb_->sim(), cfg, std::move(db),
        std::vector<fpga::FpgaDevice*>{&tb_->fpga()});
  }

  /// DhlRuntime::start(), with bench-owned lcores so the traced run can
  /// bracket the polls: one TX (Packer) and one RX (Distributor) lcore per
  /// socket, same clock, idle-poll cost and start order.
  void start_transfer_cores() {
    const sim::CpuParams& cpu = tb_->timing().cpu;
    const int sockets = runtime::RuntimeConfig{}.num_sockets;
    for (int s = 0; s < sockets; ++s) {
      auto tx = std::make_unique<sim::Lcore>(
          tb_->sim(), "dhl.tx.socket" + std::to_string(s), cpu.core_clock, s);
      tx->set_idle_poll_cycles(cpu.idle_poll_cycles);
      tx->set_poll([this, s](sim::Lcore&) {
        sim::PollResult r;
        {
          LayerScope scope{tracer_, layers_ ? layers_->packer : 0};
          r = rt_->packer().poll(s);
        }
        ++packer_polls_;
        if (r.cycles > 0) ++packer_busy_polls_;
        return r;
      });
      tx->start();
      transfer_.push_back(std::move(tx));

      auto rx = std::make_unique<sim::Lcore>(
          tb_->sim(), "dhl.rx.socket" + std::to_string(s), cpu.core_clock, s);
      rx->set_idle_poll_cycles(cpu.idle_poll_cycles);
      rx->set_poll([this, s](sim::Lcore&) {
        LayerScope scope{tracer_, layers_ ? layers_->distributor : 0};
        return rt_->distributor().poll(s);
      });
      rx->start();
      transfer_.push_back(std::move(rx));
    }
  }

  std::vector<sim::Lcore*> pick_cores(std::size_t parity) {
    std::vector<sim::Lcore*> out;
    for (std::size_t i = parity; i < transfer_.size(); i += 2) {
      out.push_back(transfer_[i].get());
    }
    return out;
  }

  /// Wrap an NF's prep/post pair: the tap sees every packet in and out,
  /// the tracer brackets the NF's own functions.
  nf::PacketFn wrap_prep(std::shared_ptr<PacketTap> tap, nf::PacketFn fn) {
    return [this, tap, fn = std::move(fn)](netio::Mbuf& m) {
      tap->on_input(m);
      LayerScope scope{tracer_, layers_ ? layers_->prep : 0,
                       static_cast<std::int64_t>(m.seq())};
      scope.count(1, m.data_len());
      return fn(m);
    };
  }
  nf::PacketFn wrap_post(std::shared_ptr<PacketTap> tap, nf::PacketFn fn) {
    return [this, tap, fn = std::move(fn)](netio::Mbuf& m) {
      nf::Verdict v;
      {
        LayerScope scope{tracer_, layers_ ? layers_->post : 0,
                         static_cast<std::int64_t>(m.seq())};
        scope.count(1, m.data_len());
        v = fn(m);
      }
      tap->on_output(m, v);
      return v;
    };
  }

  netio::TrafficConfig text_traffic(std::uint32_t frame_len,
                                    std::uint32_t flows) {
    netio::TrafficConfig t;
    t.frame_len = frame_len;
    t.num_flows = flows;
    t.payload = netio::PayloadKind::kTextAttacks;
    t.attack_probability = 0.02;
    t.attack_strings = kAttackStrings;
    return t;
  }

  void add_nids(const std::string& name, std::vector<netio::NicPort*> ports,
                bool split) {
    auto rules = std::make_shared<match::RuleSet>(
        match::RuleSet::builtin_snort_sample());
    auto nids = std::make_shared<nf::NidsProcessor>(rules, automaton_);
    auto tap = std::make_shared<PacketTap>(TapKind::kNids, rules->patterns(),
                                           0);
    taps_.push_back(tap);
    nf::DhlNfConfig cfg;
    cfg.name = name;
    cfg.timing = tb_->timing();
    cfg.hf_name = "pattern-matching";
    cfg.split_ingress_egress = split;
    nfs_.push_back(std::make_unique<nf::DhlOffloadNf>(
        tb_->sim(), cfg, std::move(ports), *rt_,
        wrap_prep(tap, [nids](netio::Mbuf& m) { return nids->dhl_prep(m); }),
        nf::nids_dhl_prep_cost(tb_->timing()),
        wrap_post(tap, [nids](netio::Mbuf& m) { return nids->dhl_post(m); }),
        nf::nids_dhl_post_cost(tb_->timing())));
  }

  void add_port(const std::string& name, Bandwidth link,
                netio::TrafficConfig traffic) {
    ports_.push_back(tb_->add_port(name, link));
    traffic_.push_back(std::move(traffic));
  }

  void build_nids_64b() {
    add_port("p0", Bandwidth::gbps(40), text_traffic(64, 64));
    automaton_ = nf::NidsProcessor::build_automaton(
        match::RuleSet::builtin_snort_sample());
    init_runtime(automaton_);
    add_nids("nids-dhl", {ports_[0]}, /*split=*/true);
  }

  void build_ipsec_nids_imix() {
    // Paper Fig. 7(b): two NFs, two 10G ports each, one I/O core per port.
    for (int i = 0; i < 4; ++i) {
      netio::TrafficConfig t = text_traffic(64, 256);
      t.size_mix = {{64, 7}, {570, 4}, {1500, 1}};
      add_port("x520." + std::to_string(i), Bandwidth::gbps(10), t);
    }
    automaton_ = nf::NidsProcessor::build_automaton(
        match::RuleSet::builtin_snort_sample());
    init_runtime(automaton_);

    const accel::SecurityAssociation sa = nf::test_security_association();
    auto ipsec = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});
    auto tap = std::make_shared<PacketTap>(TapKind::kIpsec,
                                           std::vector<std::string>{}, 0);
    taps_.push_back(tap);
    nf::DhlNfConfig cfg;
    cfg.name = "ipsec";
    cfg.timing = tb_->timing();
    cfg.hf_name = "ipsec-crypto";
    cfg.acc_config = accel::ipsec_module_config(false, sa);
    cfg.split_ingress_egress = false;
    nfs_.push_back(std::make_unique<nf::DhlOffloadNf>(
        tb_->sim(), cfg, std::vector<netio::NicPort*>{ports_[0], ports_[1]},
        *rt_,
        wrap_prep(tap,
                  [ipsec](netio::Mbuf& m) { return ipsec->dhl_prep(m); }),
        nf::ipsec_dhl_prep_cost(tb_->timing()),
        wrap_post(tap,
                  [ipsec](netio::Mbuf& m) { return ipsec->dhl_post(m); }),
        nf::ipsec_dhl_post_cost(tb_->timing())));
    add_nids("nids", {ports_[2], ports_[3]}, /*split=*/false);
  }

  void build_compncrypt() {
    netio::TrafficConfig t;
    t.frame_len = 1500;
    t.payload = netio::PayloadKind::kText;
    add_port("p0", Bandwidth::gbps(40), t);
    init_runtime(nullptr);

    auto tap = std::make_shared<PacketTap>(TapKind::kCompNcrypt,
                                           std::vector<std::string>{}, 1500);
    taps_.push_back(tap);
    // The chain's "prep" is a zero-cost CPU stage in front of the offload
    // run; it leaves the fused compression -> aes256-ctr run intact.
    std::vector<nf::ChainStage> stages;
    stages.push_back(nf::ChainStage::cpu(
        "tap", wrap_prep(tap, [](netio::Mbuf&) { return nf::Verdict::kForward; }),
        [](const netio::Mbuf&) { return 0.0; }));
    stages.push_back(nf::ChainStage::offload("compression", "compression", {},
                                             nullptr, nullptr));
    stages.push_back(nf::ChainStage::offload(
        "aes256-ctr", "aes256-ctr", accel::aes256_ctr_test_config(),
        wrap_post(tap, [](netio::Mbuf&) { return nf::Verdict::kForward; }),
        nullptr));
    chain_ = std::make_unique<nf::ChainNf>(
        tb_->sim(), nf::ChainConfig{.timing = tb_->timing()},
        std::vector<netio::NicPort*>{ports_[0]}, rt_.get(), std::move(stages));
  }

  std::uint64_t seed_;
  LayerTracer* tracer_;
  const TraceLayers* layers_;
  std::shared_ptr<const match::AhoCorasick> automaton_;
  std::vector<netio::TrafficConfig> traffic_;
  std::vector<netio::NicPort*> ports_;
  std::vector<std::shared_ptr<PacketTap>> taps_;
  std::uint64_t packer_polls_ = 0;
  std::uint64_t packer_busy_polls_ = 0;

  std::unique_ptr<nf::Testbed> tb_;
  std::unique_ptr<runtime::DhlRuntime> rt_;
  std::vector<std::unique_ptr<sim::Lcore>> transfer_;
  std::vector<std::unique_ptr<nf::DhlOffloadNf>> nfs_;
  std::unique_ptr<nf::ChainNf> chain_;
};

// --- window accounting --------------------------------------------------------

/// Everything read at the two edges of the measurement window.
struct Edge {
  telemetry::MetricsSnapshot snap;
  std::uint64_t events = 0;
  std::uint64_t packer_polls = 0;
  std::uint64_t packer_busy_polls = 0;
  std::uint64_t nf_rx = 0, nf_ibq_drops = 0;
  double nf_busy = 0, nf_total = 0;
  std::vector<double> tx_busy, tx_total, rx_busy, rx_total;
  std::vector<Picos> region_busy;
  std::uint64_t dma_bytes = 0, dma_transfers = 0;

  static Edge read(Rig& rig) {
    Edge e;
    e.snap = rig.testbed().telemetry().metrics.snapshot(rig.sim().now());
    e.events = rig.sim().executed();
    e.packer_polls = rig.packer_polls();
    e.packer_busy_polls = rig.packer_busy_polls();
    rig.nf_ingress(&e.nf_rx, &e.nf_ibq_drops);
    for (sim::Lcore* c : rig.nf_cores()) {
      e.nf_busy += c->busy_cycles();
      e.nf_total += c->busy_cycles() + c->idle_cycles();
    }
    for (sim::Lcore* c : rig.tx_cores()) {
      e.tx_busy.push_back(c->busy_cycles());
      e.tx_total.push_back(c->busy_cycles() + c->idle_cycles());
    }
    for (sim::Lcore* c : rig.rx_cores()) {
      e.rx_busy.push_back(c->busy_cycles());
      e.rx_total.push_back(c->busy_cycles() + c->idle_cycles());
    }
    fpga::FpgaDevice& dev = rig.testbed().fpga();
    for (std::uint32_t r = 0; r < dev.config().num_pr_regions; ++r) {
      e.region_busy.push_back(dev.region_busy_time(static_cast<int>(r)));
    }
    e.dma_bytes = dev.dma().tx_bytes() + dev.dma().rx_bytes();
    e.dma_transfers = dev.dma().tx_transfers() + dev.dma().rx_transfers();
    return e;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double delta(const Edge& a, const Edge& b, const std::string& name) {
  return b.snap.sum(name) - a.snap.sum(name);
}

double max_util(const std::vector<double>& busy0,
                const std::vector<double>& total0,
                const std::vector<double>& busy1,
                const std::vector<double>& total1) {
  double best = 0;
  for (std::size_t i = 0; i < busy0.size(); ++i) {
    best = std::max(best, ratio(busy1[i] - busy0[i], total1[i] - total0[i]));
  }
  return best;
}

/// Quantile of a log-binned histogram, interpolated linearly inside the
/// bin that holds the rank (the usual histogram-quantile estimator).  The
/// bin's edges and the counts below/inside it are recovered from the
/// nearest-rank percentile() by bisection, so the value moves with every
/// sample instead of snapping to a bin edge.
double interpolated_us(const sim::LatencyHistogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const auto rank_edge = [&](std::uint64_t k) {
    return h.percentile((static_cast<double>(k) - 0.5) /
                        static_cast<double>(n));
  };
  std::uint64_t r = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  r = std::clamp<std::uint64_t>(r, 1, n);
  const Picos upper = rank_edge(r);
  // Largest k in [0, n] with pred(k) true, for a predicate monotone in k.
  const auto last_true = [&](auto pred) {
    std::uint64_t lo = 0, hi = n;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (pred(mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };
  const std::uint64_t below =
      last_true([&](std::uint64_t k) { return rank_edge(k) < upper; });
  const std::uint64_t through =
      last_true([&](std::uint64_t k) { return rank_edge(k) <= upper; });
  // 96 bins per decade: the bin's lower edge is one bin width below.
  const double hi_ps = static_cast<double>(upper);
  const double lo_ps = hi_ps / std::pow(10.0, 1.0 / 96.0);
  double v = lo_ps + (hi_ps - lo_ps) * static_cast<double>(r - below) /
                         static_cast<double>(std::max<std::uint64_t>(
                             through - below, 1));
  v = std::clamp(v, static_cast<double>(h.min()),
                 static_cast<double>(h.max()));
  return v / 1e6;
}

/// generated - delivered - counted drops (0 once the pipeline is drained).
std::int64_t unaccounted(Rig& rig, std::uint64_t* generated,
                         std::uint64_t* delivered) {
  const telemetry::MetricsSnapshot s =
      rig.testbed().telemetry().metrics.snapshot(rig.sim().now());
  *generated = static_cast<std::uint64_t>(s.sum("dhl.nic.rx_pkts"));
  *delivered = static_cast<std::uint64_t>(s.sum("dhl.nic.tx_pkts"));
  double drops = s.sum("dhl.nic.rx_drops") + s.sum("dhl.runtime.obq_drops") +
                 s.sum("dhl.runtime.submit_drop_pkts") +
                 s.sum("dhl.runtime.unready_drops") +
                 s.sum("dhl.runtime.oversize_drops") +
                 s.sum("dhl.batch.crc_drop_pkts");
  drops += static_cast<double>(rig.nf_drops());
  return static_cast<std::int64_t>(*generated) -
         static_cast<std::int64_t>(*delivered) -
         static_cast<std::int64_t>(drops);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kNids64b, Workload::kIpsecNidsImix,
                     Workload::kCompNcrypt1500}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kNids64b:
      return "nids-64b";
    case Workload::kIpsecNidsImix:
      return "ipsec-nids-imix";
    case Workload::kCompNcrypt1500:
      return "compncrypt-1500";
  }
  return "?";
}

double latency_offered_fraction(Workload w) {
  switch (w) {
    case Workload::kNids64b:
      return 10.0 / 40.0;
    case Workload::kIpsecNidsImix:
      return 0.35;
    case Workload::kCompNcrypt1500:
      return 20.0 / 40.0;
  }
  return 0;
}

TraceLayers::TraceLayers(LayerTracer& tracer)
    : sim{tracer.layer("sim")},
      packer{tracer.layer("dhl.packer")},
      distributor{tracer.layer("dhl.distributor")},
      prep{tracer.layer("nf.prep")},
      post{tracer.layer("nf.post")} {}

PhaseResult run_phase(Workload w, std::uint64_t seed, double offered,
                      LayerTracer* tracer, const TraceLayers* layers) {
  PhaseResult r;
  const Picos window = offered < 1.0 ? kLatencyWindow : kCapacityWindow;
  const double t_setup = thread_cpu_s();
  Rig rig{w, seed, tracer, layers};
  rig.start_traffic(offered);
  r.setup_s = thread_cpu_s() - t_setup;

  sim::Simulator& sim = rig.sim();
  const auto timed_run = [&](Picos d) {
    const std::uint64_t before = static_cast<std::uint64_t>(
        rig.testbed().telemetry().metrics.snapshot().sum("dhl.nic.rx_pkts"));
    const double t0 = thread_cpu_s();
    if (tracer != nullptr) tracer->begin(layers->sim);
    sim.run_until(sim.now() + d);
    if (tracer != nullptr) tracer->end();
    r.timed_s += thread_cpu_s() - t0;
    r.timed_pkts += static_cast<std::uint64_t>(
                        rig.testbed().telemetry().metrics.snapshot().sum(
                            "dhl.nic.rx_pkts")) -
                    before;
  };

  timed_run(kWarmup);
  // Window start: clear the port meters and stage histograms (as
  // Testbed::measure does), read every cumulative counter.
  rig.testbed().reset_port_stats();
  rig.testbed().telemetry().stages.reset();
  for (const auto& tap : rig.taps()) tap->set_window(true);
  const Edge a = Edge::read(rig);
  timed_run(window);
  for (const auto& tap : rig.taps()) tap->set_window(false);
  const Edge b = Edge::read(rig);

  // --- virtual-clock results of the window ---------------------------------
  auto& v = r.virt;
  double wire_bytes = 0;
  for (const auto& tap : rig.taps()) {
    wire_bytes += static_cast<double>(tap->window_wire_bytes());
  }
  v["gbps"] = wire_bytes * 8.0 / to_seconds(window) / 1e9;
  sim::LatencyHistogram lat;
  for (netio::NicPort* p : rig.ports()) lat.merge(p->latency());
  v["lat_p50_us"] = interpolated_us(lat, 0.50);
  v["lat_p99_us"] = interpolated_us(lat, 0.99);
  v["lat_p999_us"] = interpolated_us(lat, 0.999);
  v["lat_samples"] = static_cast<double>(lat.count());

  const double arrived = delta(a, b, "dhl.nic.rx_pkts");
  const double forwarded = delta(a, b, "dhl.nic.tx_pkts");
  const double to_fpga = delta(a, b, "dhl.runtime.pkts_to_fpga");
  v["arrived"] = arrived;
  v["dhl.packer.polls"] = static_cast<double>(b.packer_polls - a.packer_polls);
  v["dhl.packer.busy_polls"] =
      static_cast<double>(b.packer_busy_polls - a.packer_busy_polls);
  {
    double idle = 0;
    for (std::size_t i = 0; i < a.tx_total.size(); ++i) {
      idle += (b.tx_total[i] - b.tx_busy[i]) - (a.tx_total[i] - a.tx_busy[i]);
      idle += (b.rx_total[i] - b.rx_busy[i]) - (a.rx_total[i] - a.rx_busy[i]);
    }
    idle += (b.nf_total - b.nf_busy) - (a.nf_total - a.nf_busy);
    v["sim.idle_polls"] = idle / rig.testbed().timing().cpu.idle_poll_cycles;
  }
  v["netio.rx_drop_ratio"] = ratio(delta(a, b, "dhl.nic.rx_drops"), arrived);
  v["netio.ibq_reject_ratio"] =
      ratio(static_cast<double>(b.nf_ibq_drops - a.nf_ibq_drops),
            static_cast<double>(b.nf_rx - a.nf_rx));
  v["netio.nf_io_util"] = ratio(b.nf_busy - a.nf_busy, b.nf_total - a.nf_total);
  v["dhl.copy_bytes_per_pkt"] = ratio(delta(a, b, "dhl.copy_bytes"), to_fpga);
  {
    const double hits = delta(a, b, "dhl.pool.hits");
    v["dhl.pool_hit_rate"] = ratio(hits, hits + delta(a, b, "dhl.pool.misses"));
  }
  const double batches = delta(a, b, "dhl.runtime.batches_to_fpga");
  v["dhl.pkts_per_batch"] = ratio(to_fpga, batches);
  {
    const double full = delta(a, b, "dhl.runtime.flush_full_batches");
    const double timeout = delta(a, b, "dhl.runtime.flush_timeout_batches");
    v["dhl.timeout_flush_ratio"] = ratio(timeout, full + timeout);
  }
  v["dhl.tx_core_util"] = max_util(a.tx_busy, a.tx_total, b.tx_busy, b.tx_total);
  v["dhl.rx_core_util"] = max_util(a.rx_busy, a.rx_total, b.rx_busy, b.rx_total);
  {
    const telemetry::StageLatencyRecorder& st =
        rig.testbed().telemetry().stages;
    const std::pair<const char*, telemetry::Stage> stages[] = {
        {"ibq_wait", telemetry::Stage::kIbqWait},
        {"pack", telemetry::Stage::kPack},
        {"dma_tx", telemetry::Stage::kDmaTx},
        {"fpga", telemetry::Stage::kFpga},
        {"dma_rx", telemetry::Stage::kDmaRx},
        {"distributor", telemetry::Stage::kDistributor}};
    for (const auto& [name, stage] : stages) {
      const std::string key = std::string{"dhl.stage."} + name;
      v[key + ".p50_us"] =
          static_cast<double>(st.stage(stage).percentile(0.50)) / 1e6;
      v[key + ".p99_us"] =
          static_cast<double>(st.stage(stage).percentile(0.99)) / 1e6;
    }
  }
  v["fpga.pcie_bytes_per_pkt"] =
      ratio(static_cast<double>(b.dma_bytes - a.dma_bytes), forwarded);
  v["fpga.dma_transfers_per_pkt"] =
      ratio(static_cast<double>(b.dma_transfers - a.dma_transfers), forwarded);
  {
    Picos busiest = 0;
    for (std::size_t i = 0; i < a.region_busy.size(); ++i) {
      busiest = std::max(busiest, b.region_busy[i] - a.region_busy[i]);
    }
    v["fpga.region_busy_ratio"] =
        static_cast<double>(busiest) / static_cast<double>(window);
  }
  {
    // Last fused stage's bytes over the first's: the chain's shrink factor.
    const double first = b.snap.sum("dhl.chain.stage_bytes", {{"idx", "0"}}) -
                         a.snap.sum("dhl.chain.stage_bytes", {{"idx", "0"}});
    const double last = b.snap.sum("dhl.chain.stage_bytes", {{"idx", "1"}}) -
                        a.snap.sum("dhl.chain.stage_bytes", {{"idx", "1"}});
    v["fpga.chain.stage_bytes_ratio"] = ratio(last, first);
  }
  v["nf.chain.fused_share"] = rig.fused_share();
  v["sim.events"] = static_cast<double>(b.events - a.events);

  // --- drain, conservation, outputs -----------------------------------------
  rig.stop_traffic();
  r.digest = rig.digest();
  Picos drained = 0;
  while ((r.unaccounted = unaccounted(rig, &r.generated, &r.delivered)) != 0 &&
         drained < kDrainMax) {
    sim.run_until(sim.now() + kDrainStep);
    drained += kDrainStep;
  }
  for (const auto& tap : rig.taps()) {
    const PacketTap::CheckResult c = tap->check();
    r.checked += c.checked;
    r.mismatches += c.mismatches;
  }
  v["generated"] = static_cast<double>(r.generated);
  v["delivered"] = static_cast<double>(r.delivered);
  v["digest"] = static_cast<double>(r.digest);
  return r;
}

}  // namespace dhl::perfbench
