// Pluggable congestion control for osnt::tcp flows. The controller is a
// pure policy object: the flow feeds it ACK/loss/RTO events (with
// delivery-rate samples, BBR-style) and reads back a congestion window
// and an optional pacing rate. Three implementations ship: NewReno
// (RFC 5681/6582 window arithmetic), CubicLite (RFC 8312 window curve),
// and BbrLite (startup/drain/probe_bw gain cycling with windowed
// delivery-rate sampling, modelled on R-TCP's rtcp_bbr.c / Linux BBRv1 —
// see DESIGN.md §11 for what it keeps and drops).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "osnt/common/time.hpp"

namespace osnt::tcp {

struct CcConfig {
  std::uint32_t mss = 1448;  ///< payload bytes per full segment
};

/// One ACK's worth of feedback, delivered after the flow has advanced
/// snd_una and updated its delivery-rate estimator.
struct AckEvent {
  Picos now = 0;
  std::uint64_t bytes_acked = 0;      ///< newly cum-acked by this ACK
  std::uint64_t bytes_in_flight = 0;  ///< outstanding after the advance
  Picos rtt = 0;                      ///< this ACK's RTT sample (0 = none)
  double delivery_rate_bps = 0.0;     ///< windowed sample (0 = none)
  bool round_start = false;           ///< a packet-timed round elapsed
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void on_ack(const AckEvent& ev) = 0;
  /// Loss inferred from 3 duplicate ACKs (entering fast retransmit).
  virtual void on_loss(Picos now, std::uint64_t bytes_in_flight) = 0;
  /// Retransmission timeout fired (go-back-N restart follows).
  virtual void on_rto(Picos now) = 0;

  /// A RateLimitDetector verdict: the path is policed at `rate_bps`
  /// (payload bits/s, the same unit as AckEvent::delivery_rate_bps) with
  /// an unqueued round trip of `min_rtt`. Controllers that understand
  /// policers cap cwnd/pacing near the policer BDP instead of
  /// sawtoothing against its drops; `rate_bps == 0` revokes the verdict
  /// (the limiter was lifted or raised). The default is a no-op so
  /// detector-off — and controllers without an adaptation — behave
  /// exactly as before.
  virtual void adapt_to_policer(double rate_bps, Picos min_rtt) {
    (void)rate_bps;
    (void)min_rtt;
  }

  [[nodiscard]] virtual std::uint64_t cwnd_bytes() const = 0;
  /// Pacing rate in bits/s; 0 = unpaced (pure ACK clocking).
  [[nodiscard]] virtual double pacing_rate_bps() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Factory over the CLI names: "newreno" | "cubic" | "bbr".
/// Throws std::invalid_argument for anything else.
[[nodiscard]] std::unique_ptr<CongestionControl> make_congestion_control(
    const std::string& name, CcConfig cfg);

}  // namespace osnt::tcp
