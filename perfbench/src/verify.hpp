#pragma once

// Output checks for the benchmark's workloads.
//
// A PacketTap sits in an NF's prep and post functions.  On the way in it
// snapshots a deterministic sample of frames (by generator sequence
// number); on the way out it snapshots the same frames again, counts the
// forwarded input-wire bytes of the measurement window, and stamps the
// input length for NFs that grow frames.  After the phase, check() holds
// every sampled output against a software reference the benchmark computes
// itself:
//
//   nids        bytes untouched, result word == CPU substring search of
//               every ruleset pattern over the L4 payload
//   ipsec       HMAC-SHA1-96 ICV verifies, AES-256-CTR decryption gives back
//               the inner packet, frame length == ESP encapsulation length
//   compncrypt  AES-256-CTR decryption then LZ77 decompression gives back
//               the input frame

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dhl/netio/mbuf.hpp"
#include "dhl/nf/pipeline.hpp"

namespace dhl::perfbench {

enum class TapKind { kNids, kIpsec, kCompNcrypt };

class PacketTap {
 public:
  /// `patterns` is the NIDS ruleset's content list (kNids only);
  /// `fixed_input_len` is the offered frame size for NFs whose output
  /// length does not reveal it (kCompNcrypt).
  PacketTap(TapKind kind, std::vector<std::string> patterns,
            std::uint32_t fixed_input_len);

  /// Before the NF's prep function.
  void on_input(netio::Mbuf& m);
  /// After the NF's post function, with its verdict.
  void on_output(const netio::Mbuf& m, nf::Verdict verdict);

  /// Count forwarded packets toward the measurement window.
  void set_window(bool open) { window_open_ = open; }
  std::uint64_t window_wire_bytes() const { return window_wire_bytes_; }

  struct CheckResult {
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
  };
  /// Verify every sampled output seen so far against its input.
  CheckResult check() const;

 private:
  static bool sampled(const netio::Mbuf& m) { return m.seq() % 61 == 7; }
  std::uint32_t input_len(const netio::Mbuf& m) const;

  using Key = std::pair<std::uint16_t, std::uint64_t>;  // (port, seq)
  struct Output {
    std::vector<std::uint8_t> bytes;
    std::uint64_t result;
  };

  bool check_one(const std::vector<std::uint8_t>& in, const Output& out) const;

  TapKind kind_;
  std::vector<std::string> patterns_;
  std::uint32_t fixed_input_len_;
  bool window_open_ = false;
  std::uint64_t window_wire_bytes_ = 0;
  std::map<Key, std::vector<std::uint8_t>> inputs_;
  std::map<Key, Output> outputs_;
};

}  // namespace dhl::perfbench
