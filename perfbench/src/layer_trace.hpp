#pragma once

// Host-clock layer tracer for the traced benchmark run.
//
// Every bracket is placed by the benchmark around a call it makes into a
// layer (or around a callback it hands to one): the phase's
// Simulator::run_until is the root span, and the transfer-loop polls, the
// accelerator modules' process() calls and the NF prep/post functions are
// its descendants.  Brackets nest on a stack, so each layer gets a *self*
// time (its span minus the spans opened inside it); the root's self time is
// the residual -- event dispatch, NIC/pktgen and the NF poll loops.  By
// construction the per-layer self times plus the residual add up to the
// root spans exactly.
//
// Totals (calls, packets, bytes, ns) are kept for every bracket; full spans
// (name, start, end, parent, packet seq) only for a sampled subset, written
// out as JSON when the run ends.  Brackets opened outside a root span
// (set-up, drain) are not counted.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dhl::perfbench {

class LayerTracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  struct Span {
    int layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into spans(), -1 when not sampled
    std::int64_t seq;     ///< packet sequence number, -1 when none
  };

  /// Layer ids are dense and stable; the first one registered is the root.
  int layer(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    totals_.emplace_back();
    sampled_calls_.push_back(0);
    return static_cast<int>(names_.size() - 1);
  }

  bool inside_root() const { return !stack_.empty(); }

  void begin(int layer, std::int64_t seq = -1) {
    Frame f;
    f.layer = layer;
    f.start = Clock::now();
    f.span = -1;
    std::uint64_t& n = sampled_calls_[static_cast<std::size_t>(layer)];
    if ((stack_.empty() || n++ % kSampleEvery == 0) &&
        spans_.size() < kMaxSpans) {
      f.span = static_cast<std::int64_t>(spans_.size());
      spans_.push_back({layer, ns_since_epoch(f.start), 0,
                        stack_.empty() ? -1 : stack_.back().span, seq});
    }
    stack_.push_back(f);
  }

  void end(std::uint64_t packets = 0, std::uint64_t bytes = 0) {
    const Clock::time_point now = Clock::now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const auto dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - f.start)
            .count());
    Totals& t = totals_[static_cast<std::size_t>(f.layer)];
    ++t.calls;
    t.packets += packets;
    t.bytes += bytes;
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.span >= 0) spans_[static_cast<std::size_t>(f.span)].end_ns =
        ns_since_epoch(now);
  }

  const std::vector<std::string>& names() const { return names_; }
  const Totals& totals(int layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// {"layers": [{name, calls, packets, bytes, total_ns, self_ns}...],
  ///  "spans": [{name, start_ns, end_ns, parent, seq}...]}
  void write_json(std::ostream& os) const {
    os << "{\"sample_every\": " << kSampleEvery << ", \"layers\": [";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const Totals& t = totals_[i];
      os << (i ? ", " : "") << "{\"name\": \"" << names_[i]
         << "\", \"calls\": " << t.calls << ", \"packets\": " << t.packets
         << ", \"bytes\": " << t.bytes << ", \"total_ns\": " << t.total_ns
         << ", \"self_ns\": " << t.self_ns << "}";
    }
    os << "], \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\": \""
         << names_[static_cast<std::size_t>(s.layer)]
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"seq\": " << s.seq << "}";
    }
    os << "]}\n";
  }

 private:
  static constexpr std::uint64_t kSampleEvery = 1024;
  static constexpr std::size_t kMaxSpans = 20000;

  struct Frame {
    int layer;
    Clock::time_point start;
    std::uint64_t child_ns = 0;
    std::int64_t span;
  };

  std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<std::uint64_t> sampled_calls_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

/// RAII bracket; a no-op without a tracer or outside a root span (so the
/// untraced run and the set-up/drain stretches pay one branch).
class LayerScope {
 public:
  LayerScope(LayerTracer* tracer, int layer, std::int64_t seq = -1)
      : tracer_{tracer != nullptr && tracer->inside_root() ? tracer
                                                             : nullptr} {
    if (tracer_ != nullptr) tracer_->begin(layer, seq);
  }
  ~LayerScope() {
    if (tracer_ != nullptr) tracer_->end(packets_, bytes_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  void count(std::uint64_t packets, std::uint64_t bytes = 0) {
    packets_ += packets;
    bytes_ += bytes;
  }

 private:
  LayerTracer* tracer_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dhl::perfbench
