// One TCP sender: sliding window over an unbounded (or byte-limited)
// application stream, RFC 6298 RTO estimation with bounded exponential
// backoff, fast retransmit on 3 duplicate ACKs, and a SACK-less
// go-back-N retransmit queue. The flow does not own a socket or a wire —
// it emits ready-to-send `net::` TCP/IPv4 frames through a SegmentEmitter
// (in practice gen::ClosedLoopSource + TxPipeline::kick) and is fed ACKs
// by the receiving monitor pipeline's tap. All timers run on the sim
// engine under EventCategory::kTcp; histograms go to a FlowTelemetry
// shard its owner shares among flows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "osnt/common/fifo.hpp"
#include "osnt/net/headers.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/congestion.hpp"
#include "osnt/tcp/rate_limit_detector.hpp"
#include "osnt/telemetry/histogram.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt::mon {
class LatencyProbe;
}

namespace osnt::tcp {

/// RFC 6298 retransmission-timer estimator. SRTT/RTTVAR with the standard
/// α=1/8, β=1/4 gains; RTO = SRTT + max(G, 4·RTTVAR) clamped to
/// [min_rto, max_rto]; timer backoff doubles the effective RTO per fire,
/// also clamped to max_rto (the "bounded exponential backoff"). A fresh
/// RTT sample resets the backoff. Pure arithmetic — deterministic by
/// construction, property-tested in test_property.cpp.
class RtoEstimator {
 public:
  RtoEstimator(Picos min_rto, Picos max_rto, Picos granularity = kPicosPerNano)
      : min_rto_(min_rto), max_rto_(max_rto), granularity_(granularity) {}

  void sample(Picos rtt) {
    if (rtt <= 0) return;
    if (srtt_ == 0) {  // first measurement (RFC 6298 §2.2)
      srtt_ = rtt;
      rttvar_ = rtt / 2;
    } else {  // RFC 6298 §2.3
      const Picos err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
      rttvar_ = rttvar_ - rttvar_ / 4 + err / 4;
      srtt_ = srtt_ - srtt_ / 8 + rtt / 8;
    }
    backoff_ = 0;
  }

  /// Timer fired: double the effective RTO (bounded by max_rto).
  void backoff() {
    if (rto() < max_rto_) ++backoff_;
  }

  [[nodiscard]] Picos rto() const {
    Picos base = srtt_ == 0 ? min_rto_
                            : srtt_ + std::max(granularity_, 4 * rttvar_);
    if (base < min_rto_) base = min_rto_;
    for (std::uint32_t i = 0; i < backoff_ && base < max_rto_; ++i) base *= 2;
    return base > max_rto_ ? max_rto_ : base;
  }

  [[nodiscard]] Picos srtt() const { return srtt_; }
  [[nodiscard]] Picos rttvar() const { return rttvar_; }
  [[nodiscard]] std::uint32_t backoff_count() const { return backoff_; }

 private:
  Picos min_rto_;
  Picos max_rto_;
  Picos granularity_;
  Picos srtt_ = 0;
  Picos rttvar_ = 0;
  std::uint32_t backoff_ = 0;
};

struct FlowConfig {
  std::uint32_t flow_id = 0;
  net::MacAddr src_mac{};
  net::MacAddr dst_mac{};
  net::Ipv4Addr src_ip{};
  net::Ipv4Addr dst_ip{};
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t mss = 1448;           ///< 1448 ⇒ 1518 B frames with options
  std::uint64_t bytes_to_send = 0;    ///< 0 = unbounded (duration-limited)
  std::uint64_t rwnd_bytes = 1 << 20; ///< peer's (fixed) receive window
  std::uint64_t seed = 1;             ///< per-flow stream; derives the ISN
  std::string cc = "newreno";
  Picos min_rto = kPicosPerMilli;       ///< sim-scaled (RFC says 1 s; §11)
  Picos max_rto = 250 * kPicosPerMilli;
  /// IPv4 DSCP stamped on every segment (and echoed on ACKs by the
  /// workload), so in-plane monitor probes can bin flows by class.
  std::uint8_t dscp = 0;
  /// Optional in-plane RTT sink: every accepted RTT sample (the same
  /// ones that feed the RTO estimator) is observed under class `dscp`.
  /// Not owned; must outlive the flow.
  mon::LatencyProbe* rtt_probe = nullptr;
  /// R-TCP-style rate-limit detection (DESIGN.md §15): watch the
  /// delivery-rate/RTT estimators for a policer plateau and feed the
  /// verdict to `CongestionControl::adapt_to_policer`. Off by default —
  /// and when off, the detector is never constructed, so the flow is
  /// byte-identical to a build without it.
  bool rate_limit_detector = false;
};

/// Sender-side counters, exposed for tests and the CLI report.
struct FlowStats {
  std::uint64_t segs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t fast_retx = 0;
  std::uint64_t cwnd_reductions = 0;  ///< times cwnd shrank on loss/RTO
  std::uint64_t emit_rejects = 0;     ///< segments the bottleneck queue refused

  FlowStats& operator+=(const FlowStats& o) noexcept {
    segs_sent += o.segs_sent;
    bytes_sent += o.bytes_sent;
    bytes_acked += o.bytes_acked;
    acks_received += o.acks_received;
    dup_acks += o.dup_acks;
    retransmits += o.retransmits;
    rto_fires += o.rto_fires;
    fast_retx += o.fast_retx;
    cwnd_reductions += o.cwnd_reductions;
    emit_rejects += o.emit_rejects;
    return *this;
  }
};

/// The histograms every flow of a workload records into: one shard per
/// workload, not one per flow, flushed once by its owner (DESIGN.md §11).
/// Not thread-safe; the flows sharing it run on one engine.
struct FlowTelemetry {
  telemetry::Log2Histogram cwnd_bytes;
  telemetry::Log2Histogram srtt_ns;
  telemetry::Log2Histogram delivery_rate_bps;
  telemetry::Log2Histogram rld_rate_mbps;  ///< verdict at each detection
  telemetry::Log2Histogram rld_ttd_us;     ///< time to each detection
  std::uint64_t rld_detections = 0;
  std::uint64_t rld_releases = 0;

  /// Merge into the registry under tcp.*, `total` being the flows'
  /// summed stats. Writes nothing unless telemetry is enabled and some
  /// flow sent a segment, and tcp.rld.* only once a detector detected
  /// or released.
  void flush(const FlowStats& total) const;
};

class Flow {
 public:
  /// Hand a frame to the wire-side (closed-loop source). Returns false
  /// when the bottleneck queue is full — the segment is then simply lost
  /// and recovered like any other drop.
  using SegmentEmitter = std::function<bool(net::Packet&&)>;

  /// Optional admission probe consulted before a segment is serialized.
  /// Returning false means "a frame offered right now would be
  /// tail-dropped" — the flow then skips building the frame entirely
  /// (the per-packet hot path stays allocation-free under congestion)
  /// and the probe is responsible for recording the drop exactly as a
  /// refused offer would have.
  using EmitPreflight = std::function<bool()>;

  /// `shard` must outlive the flow.
  Flow(sim::Engine& eng, FlowConfig cfg, FlowTelemetry& shard,
       SegmentEmitter emit);
  ~Flow();  // cancels pending timers

  void set_emit_preflight(EmitPreflight probe) {
    preflight_ = std::move(probe);
  }

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// Open the window and send the first burst.
  void start();

  /// Feed one received pure-ACK header (from the monitor tap on the
  /// sender's port). `peer_tsval`/`tsecr` are the ACK's timestamps-option
  /// fields (0 = absent); `now` is the ACK's MAC-receipt time.
  void on_ack(const net::TcpHeader& hdr, std::uint32_t peer_tsval,
              std::uint32_t tsecr, Picos now);

  // --- introspection ---
  [[nodiscard]] const FlowStats& stats() const { return stats_; }
  [[nodiscard]] const FlowConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  [[nodiscard]] Picos srtt() const { return rto_.srtt(); }
  [[nodiscard]] Picos current_rto() const { return rto_.rto(); }
  /// Windowed-max delivery-rate estimate (max sample over the last 10
  /// packet-timed rounds, BBR bw-filter semantics). The instantaneous
  /// sample dips during pacing drain phases; the windowed max tracks the
  /// bottleneck.
  [[nodiscard]] double delivery_rate_bps() const {
    return rate_window_.empty() ? last_rate_bps_ : rate_window_.front().bps;
  }
  /// Most recent raw delivery-rate sample (delivered-delta / elapsed).
  [[nodiscard]] double last_delivery_sample_bps() const {
    return last_rate_bps_;
  }
  [[nodiscard]] std::uint64_t bytes_in_flight() const {
    return snd_nxt_ - snd_una_;
  }
  [[nodiscard]] bool done() const {
    return cfg_.bytes_to_send != 0 && snd_una_ >= cfg_.bytes_to_send;
  }
  [[nodiscard]] std::uint32_t isn() const { return isn_; }
  [[nodiscard]] const CongestionControl& cc() const { return *cc_; }
  /// Null unless `FlowConfig::rate_limit_detector` was set.
  [[nodiscard]] const RateLimitDetector* rate_limit_detector() const {
    return rld_.get();
  }

 private:
  struct SegRec {
    std::uint64_t offset;      ///< stream offset of the first payload byte
    std::uint32_t len;
    Picos sent_time;
    std::uint64_t delivered_at_send;  ///< delivery-rate sample anchors
    Picos delivered_time_at_send;
  };
  struct RateSample {
    std::uint64_t round;  ///< `round_count_` when the sample was taken
    double bps;
  };

  void try_send();
  void emit_segment(std::uint64_t offset, std::uint32_t len, bool in_place);
  void on_rto_fire();
  void arm_rto();
  void note_cwnd(Picos now);
  [[nodiscard]] std::int64_t unwrap_ack(std::uint32_t ack32) const;
  [[nodiscard]] std::uint32_t seq32_of(std::uint64_t offset) const {
    return isn_ + static_cast<std::uint32_t>(offset);
  }

  sim::Engine* eng_;
  FlowConfig cfg_;
  FlowTelemetry* tel_;
  SegmentEmitter emit_;
  EmitPreflight preflight_;  ///< null = always write and offer
  std::unique_ptr<CongestionControl> cc_;
  std::unique_ptr<RateLimitDetector> rld_;  ///< null = detector off
  RtoEstimator rto_;
  std::uint32_t isn_;

  std::uint64_t snd_una_ = 0;  ///< stream offsets, 0-based (header adds ISN)
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t max_sent_ = 0;
  /// One record per segment sent and not yet cumulatively ACKed, in
  /// send order. Allocated by the flow's first send.
  Fifo<SegRec> inflight_;
  std::uint32_t dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;
  std::uint32_t last_tsecr_seen_ = 0;  ///< peer tsval to echo back

  // Delivery-rate estimator (BBR-style: delivered-bytes deltas between
  // a segment's send anchor and its ACK).
  std::uint64_t delivered_ = 0;
  Picos delivered_time_ = 0;
  std::uint64_t round_mark_ = 0;  ///< `delivered_` at last round start
  std::uint64_t round_count_ = 0;
  double last_rate_bps_ = 0.0;
  /// Rate samples of the last 10 rounds, decreasing from front to back:
  /// the front holds the windowed max. Allocated by the first sample.
  Fifo<RateSample> rate_window_;

  Picos pace_next_ = 0;
  sim::EventId pace_timer_{};
  sim::EventId rto_timer_{};

  FlowStats stats_;
  telemetry::TraceRecorder::TrackId trace_track_ = 0;
  bool trace_track_set_ = false;
};

}  // namespace osnt::tcp
