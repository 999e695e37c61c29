#pragma once

// pattern-matching accelerator module (paper V-B2): the multi-pipeline
// AC-DFA of Jiang et al. [35], ported for the DHL NIDS.
//
// Table VI characterization: 6,336 LUTs (1.4%), 524 BRAM blocks (35.64% --
// the AC-DFA transition tables live in BRAM), 32.40 Gbps, 55 cycles delay.
// Table V: 6.8 MB PR bitstream.
//
// Functionally the module walks the packet's L4 payload through the same
// Aho-Corasick automaton the CPU-only NIDS uses (built from the ruleset's
// content strings) and returns a result word:
//
//   bits  0..47 : bitmap of matched pattern indices < 48
//   bits 48..63 : number of distinct patterns matched (saturating)
//
// The NIDS worker evaluates rule options on packets whose count is nonzero.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dhl/fpga/accelerator.hpp"
#include "dhl/fpga/bitstream.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/netio/mbuf.hpp"

namespace dhl::accel {

/// Decode helpers for the result word.
constexpr std::uint64_t pattern_result_bitmap(std::uint64_t result) {
  return result & ((1ULL << 48) - 1);
}
constexpr std::uint32_t pattern_result_count(std::uint64_t result) {
  return static_cast<std::uint32_t>(result >> 48);
}

class PatternMatchingModule final : public fpga::AcceleratorModule {
 public:
  /// The automaton is baked into the bitstream (its DFA occupies the BRAM),
  /// so it is a constructor argument, not runtime configuration.
  explicit PatternMatchingModule(
      std::shared_ptr<const match::AhoCorasick> automaton);

  const std::string& name() const override {
    static const std::string kName = "pattern-matching";
    return kName;
  }

  fpga::ModuleResources resources() const override { return {6'336, 524}; }

  fpga::ModuleTiming timing() const override {
    return {Bandwidth::gbps(32.40), 55};
  }

  void configure(std::span<const std::uint8_t> config) override;

  fpga::ProcessResult process(std::span<std::uint8_t> data) override;

  /// Batch form of process() and the software-fallback kernel
  /// (DHL_register_fallback): walks one run of packets through the
  /// automaton's multi-lane stepper (find_all_multi) so the per-byte DFA
  /// loads of up to AhoCorasick::kLanes packets overlap, and stores each
  /// packet's result word as its accel_result.  The word is exactly
  /// `process(packet bytes).result`; the module never rewrites bytes, so
  /// that is the whole observable effect.
  void process_run(std::span<netio::Mbuf* const> pkts);

 private:
  std::shared_ptr<const match::AhoCorasick> automaton_;
  /// Per-pattern "already counted" scratch, reused across records so the
  /// hot path stays allocation-free (the hardware DFA has this as a fixed
  /// match-vector register anyway).  `touched_` lists the entries to clear.
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint32_t> touched_;
  /// process_run scratch (haystack spans + per-lane match lists), reused
  /// across batches to keep the fallback hot path allocation-free at
  /// steady state.
  std::vector<std::span<const std::uint8_t>> lane_haystacks_;
  std::vector<std::vector<match::PatternMatch>> lane_matches_;
};

/// Bitstream descriptor (Table V: 6.8 MB).
fpga::PartialBitstream pattern_matching_bitstream(
    std::shared_ptr<const match::AhoCorasick> automaton);

}  // namespace dhl::accel
