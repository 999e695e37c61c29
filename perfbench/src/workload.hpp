#pragma once

// The benchmark's three workloads and the phase protocol they share.
//
// A phase builds a fresh rig (testbed, module database, runtime, NFs),
// offers open-loop traffic at a fixed fraction of line rate (back-to-back
// at line rate, seeded Poisson-like gaps below it), runs a 3 ms
// warm-up and a measurement window on the virtual clock -- 6 ms at line
// rate, the protocol behind EXPERIMENTS.md's figures; 10 ms below it, for
// enough samples beyond p99.9 -- then stops the traffic,
// drains the pipeline and checks conservation and outputs.
//
// The runtime's transfer loops run on bench-owned lcores (same clock, same
// idle-poll cost and start order as DhlRuntime::start()) in every run, so
// the traced run brackets exactly the polls the untraced run makes and the
// two produce bit-identical virtual-clock results.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "layer_trace.hpp"

namespace dhl::perfbench {

enum class Workload { kNids64b, kIpsecNidsImix, kCompNcrypt1500 };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);

/// Offered load of the latency phase, as a fraction of each port's line
/// rate (nids-64b: 10 of 40 Gbps; ipsec-nids-imix: 35% of each 10G port;
/// compncrypt-1500: 20 of 40 Gbps).
double latency_offered_fraction(Workload w);

/// Registers the benchmark's layer names on a tracer, root first.
struct TraceLayers {
  explicit TraceLayers(LayerTracer& tracer);
  int sim, packer, distributor, prep, post;
};

struct PhaseResult {
  /// Virtual-clock results, all deterministic given (workload, seed, load):
  /// end-to-end values and the per-layer counters of the window.
  std::map<std::string, double> virt;
  /// Input-stream digest (CRC32C over every generated frame, all ports).
  std::uint32_t digest = 0;
  /// Packets that reached the NIC ports, over the whole phase.
  std::uint64_t generated = 0;
  /// generated - delivered - counted drops, after the drain (0 = conserved).
  std::int64_t unaccounted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;

  // Host clock: CPU time of the (single) simulation thread.
  double setup_s = 0;        ///< rig construction .. traffic start
  double timed_s = 0;        ///< warm-up + window run_until calls
  std::uint64_t timed_pkts = 0;  ///< packets generated in those calls
};

/// Run one phase.  `offered` is the fraction of line rate; a non-null
/// tracer brackets the layers (and must have `layers` registered).
PhaseResult run_phase(Workload w, std::uint64_t seed, double offered,
                      LayerTracer* tracer, const TraceLayers* layers);

}  // namespace dhl::perfbench
