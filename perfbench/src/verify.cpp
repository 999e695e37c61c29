#include "verify.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <span>
#include <stdexcept>

#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/ipsec_common.hpp"
#include "dhl/accel/lz77.hpp"
#include "dhl/common/units.hpp"
#include "dhl/crypto/aes.hpp"
#include "dhl/crypto/sha1.hpp"
#include "dhl/netio/headers.hpp"
#include "dhl/nf/ipsec_gateway.hpp"

namespace dhl::perfbench {

namespace {

bool contains_nocase(std::span<const std::uint8_t> hay,
                     const std::string& needle) {
  if (needle.empty() || needle.size() > hay.size()) return false;
  const auto fold = [](unsigned char c) {
    return static_cast<unsigned char>(std::tolower(c));
  };
  return std::search(hay.begin(), hay.end(), needle.begin(), needle.end(),
                     [&](std::uint8_t a, char b) {
                       return fold(a) == fold(static_cast<unsigned char>(b));
                     }) != hay.end();
}

/// The pattern-matching module's result word, recomputed by brute force:
/// bitmap of matched pattern indices < 48 | distinct-match count << 48.
std::uint64_t reference_match_word(std::span<const std::uint8_t> frame,
                                   const std::vector<std::string>& patterns) {
  const netio::PacketView view = netio::parse_packet(frame);
  const std::span<const std::uint8_t> payload =
      frame.subspan(view.valid ? view.payload_offset : 0);
  std::uint64_t bitmap = 0;
  std::uint64_t count = 0;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (!contains_nocase(payload, patterns[p])) continue;
    ++count;
    if (p < 48) bitmap |= 1ULL << p;
  }
  return bitmap | (std::min<std::uint64_t>(count, 0xffff) << 48);
}

bool check_esp(const std::vector<std::uint8_t>& in,
               const std::vector<std::uint8_t>& out) {
  using namespace accel;
  if (out.size() != esp_encap_len(static_cast<std::uint32_t>(in.size()))) {
    return false;
  }
  const SecurityAssociation sa = nf::test_security_association();
  const crypto::HmacSha1 hmac{sa.auth_key};
  const std::span<const std::uint8_t> frame{out};
  if (!hmac.verify96(
          frame.subspan(kEspOffset, frame.size() - kEspOffset - kEspIcvLen),
          std::span<const std::uint8_t, kEspIcvLen>{
              frame.data() + frame.size() - kEspIcvLen, kEspIcvLen})) {
    return false;
  }
  // RFC 3686 counter block: salt || IV || 1.
  std::array<std::uint8_t, 16> counter{};
  std::copy(sa.salt.begin(), sa.salt.end(), counter.begin());
  std::copy_n(out.begin() + kEspIvOffset, kEspIvLen, counter.begin() + 4);
  counter[15] = 1;
  const crypto::Aes256 cipher{sa.key};
  const auto cipher_text = frame.subspan(
      kEspPayloadOffset, frame.size() - kEspPayloadOffset - kEspIcvLen);
  std::vector<std::uint8_t> plain(cipher_text.size());
  crypto::aes256_ctr(cipher, counter, cipher_text, plain);
  const std::size_t inner = in.size() - netio::kEthernetHeaderLen;
  return plain.size() >= inner &&
         std::equal(plain.begin(), plain.begin() + static_cast<long>(inner),
                    in.begin() + netio::kEthernetHeaderLen);
}

bool check_compncrypt(const std::vector<std::uint8_t>& in,
                      const std::vector<std::uint8_t>& out) {
  const std::vector<std::uint8_t> blob = accel::aes256_ctr_test_config();
  const crypto::Aes256 cipher{std::span<const std::uint8_t, 32>{blob.data(),
                                                                32}};
  const std::span<const std::uint8_t, 16> iv{blob.data() + 32, 16};
  std::vector<std::uint8_t> plain(out.size());
  crypto::aes256_ctr(cipher, iv, out, plain);
  if (plain == in) return true;  // incompressible: forwarded as is
  try {
    return accel::lz77_decompress(plain) == in;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace

PacketTap::PacketTap(TapKind kind, std::vector<std::string> patterns,
                     std::uint32_t fixed_input_len)
    : kind_{kind},
      patterns_{std::move(patterns)},
      fixed_input_len_{fixed_input_len} {}

void PacketTap::on_input(netio::Mbuf& m) {
  // The input length rides the mbuf's free-form tag (the IPsec output is
  // longer than its input; the chain NF owns the tag itself).
  if (kind_ != TapKind::kCompNcrypt) {
    m.set_user_tag(static_cast<std::uint16_t>(m.data_len()));
  }
  if (sampled(m)) {
    inputs_[{m.port(), m.seq()}].assign(m.payload().begin(),
                                        m.payload().end());
  }
}

std::uint32_t PacketTap::input_len(const netio::Mbuf& m) const {
  return kind_ == TapKind::kCompNcrypt ? fixed_input_len_ : m.user_tag();
}

void PacketTap::on_output(const netio::Mbuf& m, nf::Verdict verdict) {
  if (verdict == nf::Verdict::kDrop) return;
  if (window_open_) window_wire_bytes_ += wire_bytes(input_len(m));
  if (sampled(m)) {
    outputs_[{m.port(), m.seq()}] = {
        {m.payload().begin(), m.payload().end()}, m.accel_result()};
  }
}

bool PacketTap::check_one(const std::vector<std::uint8_t>& in,
                          const Output& out) const {
  switch (kind_) {
    case TapKind::kNids:
      return out.bytes == in &&
             out.result == reference_match_word(in, patterns_);
    case TapKind::kIpsec:
      return out.result == 0 && check_esp(in, out.bytes);
    case TapKind::kCompNcrypt:
      return check_compncrypt(in, out.bytes);
  }
  return false;
}

PacketTap::CheckResult PacketTap::check() const {
  CheckResult r;
  for (const auto& [key, out] : outputs_) {
    ++r.checked;
    const auto in = inputs_.find(key);
    if (in == inputs_.end() || !check_one(in->second, out)) ++r.mismatches;
  }
  return r;
}

}  // namespace dhl::perfbench
