// dhl_perfbench: the repo benchmark (see ../README.md).
//
//   dhl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <path>]
//
// Repeats (capacity phase, latency phase) pairs, each on a fresh rig, until
// `--seconds` of host time are spent (at least kMinReps pairs).  Virtual-
// clock metrics must come out identical in every repeat; host-clock
// metrics are medians over the repeats.  With --trace 1 every repeat is
// run twice, untraced and traced, and the per-layer metrics are printed
// instead of the end-to-end ones.
//
// Human-readable lines first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit code 1 on any output,
// conservation, determinism or trace-accounting failure, 2 on bad usage or
// a refused environment.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "dhl/common/simd.hpp"
#include "layer_trace.hpp"
#include "workload.hpp"

extern char** environ;

namespace dhl::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
/// Second seed held out for confirming a claim made on the first.
constexpr std::uint64_t kHeldOutSeed = 20181103;
/// Paper Fig. 6(c): DHL-NIDS throughput at 64 B.
constexpr double kPaperNids64bGbps = 18.3;
/// Unit of times on the simulated (virtual) clock, kept apart from the
/// host-clock units so no number is read against the wrong clock.
constexpr const char* kVirtualUs = "us-virtual";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

/// Environment overrides that change the measured program (DHL_SIMD,
/// DHL_CONFIG, DHL_<SECTION>_*, DHL_SCENARIO_SEED): all start with DHL_.
std::vector<std::string> program_overrides() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DHL_", 4) == 0) {
      out.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double kpps(const PhaseResult& cap, const PhaseResult& lat) {
  return static_cast<double>(cap.timed_pkts + lat.timed_pkts) /
         (cap.timed_s + lat.timed_s) / 1e3;
}

/// Names of the virtual-clock values two runs must agree on exactly.
std::vector<std::string> diff_keys(const PhaseResult& a,
                                   const PhaseResult& b) {
  std::vector<std::string> out;
  for (const auto& [k, v] : a.virt) {
    const auto it = b.virt.find(k);
    if (it == b.virt.end() || it->second != v) out.push_back(k);
  }
  if (a.virt.size() != b.virt.size()) out.push_back("<key set>");
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args, Workload w) {
  std::printf("workload %s  seed %llu  held-out seed %llu  trace %d\n",
              to_string(w), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kHeldOutSeed),
              args.trace ? 1 : 0);
  std::printf("program: build %s, ledger %s, simd", DHL_PERFBENCH_BUILD_TYPE,
              DHL_LEDGER ? "compiled in" : "compiled out");
  for (const common::simd::KernelInfo& k : common::simd::kernel_report()) {
    std::printf(" %s=%s", k.name, common::simd::to_string(k.selected));
  }
  std::printf("\n");

  LayerTracer tracer;
  const TraceLayers layers{tracer};
  const double lat_load = latency_offered_fraction(w);

  std::vector<PhaseResult> caps, lats, tcaps, tlats;
  std::vector<std::string> problems;
  const Clock::time_point t0 = Clock::now();
  double rep_s = 0;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep >= kMinReps && elapsed + rep_s > args.seconds) break;
    const Clock::time_point r0 = Clock::now();
    caps.push_back(run_phase(w, args.seed, 1.0, nullptr, nullptr));
    lats.push_back(run_phase(w, args.seed, lat_load, nullptr, nullptr));
    if (args.trace) {
      tcaps.push_back(run_phase(w, args.seed, 1.0, &tracer, &layers));
      tlats.push_back(run_phase(w, args.seed, lat_load, &tracer, &layers));
    }
    rep_s = std::chrono::duration<double>(Clock::now() - r0).count();
  }

  // --- determinism guard and checks -------------------------------------------
  const auto same = [&](const PhaseResult& ref, const PhaseResult& got,
                        const char* what) {
    for (const std::string& k : diff_keys(ref, got)) {
      problems.push_back(std::string{what} + " differs in " + k);
    }
  };
  for (std::size_t i = 1; i < caps.size(); ++i) {
    same(caps[0], caps[i], "repeat capacity phase");
    same(lats[0], lats[i], "repeat latency phase");
  }
  for (std::size_t i = 0; i < tcaps.size(); ++i) {
    same(caps[0], tcaps[i], "traced capacity phase");
    same(lats[0], tlats[i], "traced latency phase");
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&caps, &lats, &tcaps, &tlats}) {
    for (const PhaseResult& p : *set) {
      if (p.unaccounted != 0) {
        problems.push_back("conservation: " + std::to_string(p.unaccounted) +
                           " packets unaccounted for after the drain");
      }
      if (p.mismatches > 0) {
        problems.push_back(std::to_string(p.mismatches) + " of " +
                           std::to_string(p.checked) +
                           " sampled outputs differ from the reference");
      }
      failed += p.mismatches;
    }
  }
  for (const auto* set : {&lats, &tlats}) {
    for (const PhaseResult& p : *set) {
      attempted += p.generated;
      failed += p.generated - p.delivered;
    }
  }

  const PhaseResult& cap = caps[0];
  const PhaseResult& lat = lats[0];
  const double loss_ratio =
      static_cast<double>(lat.generated - lat.delivered + lat.mismatches) /
      static_cast<double>(lat.generated);
  std::vector<double> kpps_u, kpps_t, setups;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    kpps_u.push_back(kpps(caps[i], lats[i]));
    setups.push_back(caps[i].setup_s);
    setups.push_back(lats[i].setup_s);
  }
  for (std::size_t i = 0; i < tcaps.size(); ++i) {
    kpps_t.push_back(kpps(tcaps[i], tlats[i]));
  }

  std::printf("sim_kpps per repeat:");
  for (double k : kpps_u) std::printf(" %.1f", k);
  std::printf("\nsetup_s per set-up:");
  for (double t : setups) std::printf(" %.3f", t);
  std::printf("\n");
  std::printf("repeats %zu (%s)  input stream digests: capacity %08x, "
              "latency %08x\n",
              caps.size(), args.trace ? "untraced + traced" : "untraced",
              cap.digest, lat.digest);
  std::printf("capacity_gbps %.4f Gbps", cap.virt.at("gbps"));
  if (w == Workload::kNids64b) {
    std::printf("  (paper Fig. 6(c): %.1f Gbps, relative error %+.2f%%)\n",
                kPaperNids64bGbps,
                100.0 * (cap.virt.at("gbps") - kPaperNids64bGbps) /
                    kPaperNids64bGbps);
  } else {
    std::printf("  (no paper reference; model unvalidated for this shape)\n");
  }
  std::printf("lat_p50_us %.4f  lat_p99_us %.4f  lat_p999_us %.4f us  "
              "(samples %.0f)\n",
              lat.virt.at("lat_p50_us"), lat.virt.at("lat_p99_us"),
              lat.virt.at("lat_p999_us"), lat.virt.at("lat_samples"));
  std::printf("loss_ratio %.6g  (latency phase: %llu offered, %llu "
              "delivered; %llu sampled outputs checked)\n",
              loss_ratio, static_cast<unsigned long long>(lat.generated),
              static_cast<unsigned long long>(lat.delivered),
              static_cast<unsigned long long>(cap.checked + lat.checked));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"capacity_gbps", cap.virt.at("gbps"), "Gbps"},
        {"lat_p50_us", lat.virt.at("lat_p50_us"), kVirtualUs},
        {"lat_p99_us", lat.virt.at("lat_p99_us"), kVirtualUs},
        {"lat_p999_us", lat.virt.at("lat_p999_us"), kVirtualUs},
        {"sim_kpps", median(kpps_u), "kpps"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Virtual-clock layer metrics: throughput-side ones from the capacity
    // window, latency-side ones from the latency window, DES ones from both.
    const auto c = [&](const char* k) { return cap.virt.at(k); };
    const auto l = [&](const char* k) { return lat.virt.at(k); };
    const auto both = [&](const char* k) { return c(k) + l(k); };
    const double arrived = both("arrived");
    metrics = {
        {"sim.events_per_pkt", both("sim.events") / arrived, "count"},
        {"sim.idle_polls_per_pkt", both("sim.idle_polls") / arrived, "count"},
        {"netio.rx_drop_ratio", c("netio.rx_drop_ratio"), "ratio"},
        {"netio.ibq_reject_ratio", c("netio.ibq_reject_ratio"), "ratio"},
        {"netio.nf_io_util", c("netio.nf_io_util"), "ratio"},
        {"dhl.packer.busy_poll_ratio",
         both("dhl.packer.busy_polls") / both("dhl.packer.polls"), "ratio"},
        {"dhl.copy_bytes_per_pkt", c("dhl.copy_bytes_per_pkt"), "B"},
        {"dhl.pool_hit_rate", c("dhl.pool_hit_rate"), "ratio"},
        {"dhl.pkts_per_batch", c("dhl.pkts_per_batch"), "count"},
        {"dhl.timeout_flush_ratio", l("dhl.timeout_flush_ratio"), "ratio"},
        {"dhl.tx_core_util", c("dhl.tx_core_util"), "ratio"},
        {"dhl.rx_core_util", c("dhl.rx_core_util"), "ratio"},
    };
    for (const char* s :
         {"ibq_wait", "pack", "dma_tx", "fpga", "dma_rx", "distributor"}) {
      for (const char* q : {"p50_us", "p99_us"}) {
        const std::string k = std::string{"dhl.stage."} + s + "." + q;
        metrics.push_back({k, lat.virt.at(k), kVirtualUs});
      }
    }
    metrics.push_back({"fpga.pcie_bytes_per_pkt",
                       c("fpga.pcie_bytes_per_pkt"), "B"});
    metrics.push_back({"fpga.dma_transfers_per_pkt",
                       c("fpga.dma_transfers_per_pkt"), "count"});
    metrics.push_back({"fpga.region_busy_ratio", c("fpga.region_busy_ratio"),
                       "ratio"});
    metrics.push_back({"fpga.chain.stage_bytes_ratio",
                       c("fpga.chain.stage_bytes_ratio"), "ratio"});
    metrics.push_back({"nf.chain.fused_share", c("nf.chain.fused_share"),
                       "ratio"});

    // Host-clock layer metrics over every traced repeat.
    double traced_pkts = 0;
    for (std::size_t i = 0; i < tcaps.size(); ++i) {
      traced_pkts +=
          static_cast<double>(tcaps[i].timed_pkts + tlats[i].timed_pkts);
    }
    const auto self_per_pkt = [&](int layer) {
      return static_cast<double>(tracer.totals(layer).self_ns) / traced_pkts;
    };
    metrics.push_back({"sim.residual_host_ns_per_pkt",
                       self_per_pkt(layers.sim), "ns/pkt"});
    metrics.push_back({"dhl.packer.host_ns_per_pkt",
                       self_per_pkt(layers.packer), "ns/pkt"});
    metrics.push_back({"dhl.distributor.host_ns_per_pkt",
                       self_per_pkt(layers.distributor), "ns/pkt"});
    metrics.push_back({"nf.prep.host_ns_per_pkt", self_per_pkt(layers.prep),
                       "ns/pkt"});
    metrics.push_back({"nf.post.host_ns_per_pkt", self_per_pkt(layers.post),
                       "ns/pkt"});
    for (const char* hf :
         {"pattern-matching", "ipsec-crypto", "compression", "aes256-ctr"}) {
      const LayerTracer::Totals& t =
          tracer.totals(tracer.layer(std::string{"accel."} + hf));
      metrics.push_back({std::string{"accel."} + hf + ".host_ns_per_pkt",
                         t.calls ? static_cast<double>(t.self_ns) /
                                       static_cast<double>(t.calls)
                                 : 0.0,
                         "ns/pkt"});
      metrics.push_back({std::string{"accel."} + hf + ".host_ns_per_kb",
                         t.bytes ? static_cast<double>(t.self_ns) * 1024.0 /
                                       static_cast<double>(t.bytes)
                                 : 0.0,
                         "ns/KiB"});
    }
    metrics.push_back({"trace.overhead_ratio",
                       median(kpps_u) / median(kpps_t), "ratio"});

    // Self times plus the residual must add up to the root spans.
    std::uint64_t self_sum = 0;
    for (std::size_t i = 0; i < tracer.names().size(); ++i) {
      self_sum += tracer.totals(static_cast<int>(i)).self_ns;
    }
    const std::uint64_t root = tracer.totals(layers.sim).total_ns;
    std::printf("trace: root spans %.3f s, layer self times + residual "
                "%.3f s, %zu sampled spans\n",
                static_cast<double>(root) / 1e9,
                static_cast<double>(self_sum) / 1e9, tracer.spans().size());
    if (self_sum != root) {
      problems.push_back("trace: layer self times do not add up to the root");
    }
    if (!args.spans_out.empty()) {
      std::ofstream f{args.spans_out};
      tracer.write_json(f);
      if (!f.good()) {
        std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
      }
    }
  }

  for (const std::string& p : problems) std::printf("FAIL: %s\n", p.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct = problems.empty();
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dhl::perfbench

int main(int argc, char** argv) {
  using namespace dhl::perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <nids-64b|ipsec-nids-imix|"
                 "compncrypt-1500> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n",
                 argv[0]);
    return 2;
  }
  const auto w = parse_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> overrides = program_overrides();
  if (!overrides.empty()) {
    for (const std::string& o : overrides) {
      std::fprintf(stderr, "refusing to run: %s changes the measured program\n",
                   o.c_str());
    }
    return 2;
  }
  return run(args, *w);
}
