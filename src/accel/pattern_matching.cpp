#include "dhl/accel/pattern_matching.hpp"

#include <stdexcept>

#include "dhl/common/check.hpp"
#include "dhl/netio/headers.hpp"

namespace dhl::accel {

PatternMatchingModule::PatternMatchingModule(
    std::shared_ptr<const match::AhoCorasick> automaton)
    : automaton_{std::move(automaton)} {
  DHL_CHECK_MSG(automaton_ != nullptr, "pattern-matching needs an automaton");
}

void PatternMatchingModule::configure(std::span<const std::uint8_t> config) {
  // The DFA is fixed at synthesis time; only an empty blob is accepted
  // (DHL_acc_configure with defaults).
  if (!config.empty()) {
    throw std::invalid_argument(
        "pattern-matching: automaton is baked into the bitstream; "
        "reconfigure by loading a new PR bitstream");
  }
}

fpga::ProcessResult PatternMatchingModule::process(
    std::span<std::uint8_t> data) {
  const auto len = static_cast<std::uint32_t>(data.size());
  const netio::PacketView view = netio::parse_packet(data);
  // Scan the L4 payload of parsable packets, the whole frame otherwise
  // (the hardware DFA streams whatever bytes it is given).
  const std::size_t start = view.valid ? view.payload_offset : 0;
  const std::span<const std::uint8_t> haystack{data.data() + start,
                                               data.size() - start};

  std::uint64_t bitmap = 0;
  std::uint32_t distinct = 0;
  if (seen_.size() < automaton_->pattern_count()) {
    seen_.resize(automaton_->pattern_count(), 0);
  }
  std::uint32_t state = 0;
  for (const std::uint8_t b : haystack) {
    state = automaton_->step(state, b);
    for (const std::uint32_t p : automaton_->outputs(state)) {
      if (!seen_[p]) {
        seen_[p] = 1;
        touched_.push_back(p);
        ++distinct;
        if (p < 48) bitmap |= 1ULL << p;
      }
    }
  }
  for (const std::uint32_t p : touched_) seen_[p] = 0;
  touched_.clear();
  if (distinct > 0xffff) distinct = 0xffff;
  const std::uint64_t result =
      bitmap | (static_cast<std::uint64_t>(distinct) << 48);
  return {result, len, /*data_unmodified=*/true};
}

void PatternMatchingModule::process_run(std::span<netio::Mbuf* const> pkts) {
  const std::size_t n = pkts.size();
  if (lane_matches_.size() < n) lane_matches_.resize(n);
  lane_haystacks_.clear();
  for (const netio::Mbuf* m : pkts) {
    const std::span<const std::uint8_t> data = m->payload();
    const netio::PacketView view = netio::parse_packet(data);
    const std::size_t start = view.valid ? view.payload_offset : 0;
    lane_haystacks_.push_back(data.subspan(start));
  }
  for (std::size_t i = 0; i < n; ++i) lane_matches_[i].clear();
  automaton_->find_all_multi(lane_haystacks_,
                             {lane_matches_.data(), n});

  if (seen_.size() < automaton_->pattern_count()) {
    seen_.resize(automaton_->pattern_count(), 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bitmap = 0;
    std::uint32_t distinct = 0;
    for (const match::PatternMatch& m : lane_matches_[i]) {
      if (!seen_[m.pattern]) {
        seen_[m.pattern] = 1;
        touched_.push_back(m.pattern);
        ++distinct;
        if (m.pattern < 48) bitmap |= 1ULL << m.pattern;
      }
    }
    for (const std::uint32_t p : touched_) seen_[p] = 0;
    touched_.clear();
    if (distinct > 0xffff) distinct = 0xffff;
    pkts[i]->set_accel_result(bitmap |
                              (static_cast<std::uint64_t>(distinct) << 48));
  }
}

fpga::PartialBitstream pattern_matching_bitstream(
    std::shared_ptr<const match::AhoCorasick> automaton) {
  fpga::PartialBitstream b;
  b.hf_name = "pattern-matching";
  b.size_bytes = 6'800'000;  // Table V: 6.8 MB
  b.resources = PatternMatchingModule{automaton}.resources();
  b.factory = [automaton] {
    return std::make_unique<PatternMatchingModule>(automaton);
  };
  return b;
}

}  // namespace dhl::accel
