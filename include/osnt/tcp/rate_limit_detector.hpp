// R-TCP-style rate-limit detection (see DESIGN.md §15). A token-bucket
// limiter has a signature no ordinary bottleneck shares: the flow's
// delivered goodput pins to a flat plateau while the sender demonstrably
// pushes harder — either the RTT inflates well past its unqueued floor
// (a shaper queueing behind the bucket) or losses arrive at the plateau
// rate (a policer discarding the non-conformant excess). The detector
// watches the flow's existing per-ACK estimator state (zero extra
// events, zero extra dataplane state machines) and hands its verdict to
// the congestion controller via `CongestionControl::adapt_to_policer`.
//
// Three mechanisms:
//   * Plateau detection integrates `delivered` over wall-clock windows
//     (`kWindowRtts * srtt`, floored at `kMinWindow` so one window
//     spans several RTO stall/burst cycles). Cumulative-ACK goodput is
//     immune to the delivery-rate aliasing of loss recovery, so "flat
//     across consecutive windows, with losses or inflated RTT" is a
//     reliable limiter signature. It only answers *whether* a limiter
//     stands — under a drop-mode policer its level is the achieved
//     goodput, dragged far below the token rate by go-back-N recovery.
//   * The verdict rate comes from the clean (non-recovery) per-ACK
//     delivery-rate samples accumulated over the plateau in a small
//     log-spaced histogram. Against a shaper they pin at the token rate
//     directly. Against a policer they split into a token-rate cluster
//     (ACK clock through the draining bucket) and a line-rate pileup
//     (post-stall bursts through the refilled reserve) — the verdict is
//     the median of samples below the top of the distribution, falling
//     back to the plain median when that cut removes most of the mass
//     (the unimodal shaper case).
//   * Release probing. Once adapted, the controller paces at the
//     verdict, so no passive sample can ever reveal that the limiter
//     was lifted — and a policer's token reserve can fake short bursts
//     above any threshold, so counting over-rate ACKs cannot tell a
//     lifted limiter from a deep bucket. Instead the detector
//     periodically runs an active probe epoch: for one measurement
//     window every `kProbeIntervalWindows`, the exported rate is
//     `kProbeGain` times the verdict (the controller simply follows
//     it). A standing limiter holds that window's goodput at the token
//     rate — inside the verdict band — while a lifted one lets it
//     break above `(1 + kRateTolerance) * verdict`, which releases the
//     verdict and restarts learning. The epoch's cost against a
//     standing policer is one window of overshoot loss every interval.
//
// The detector is pure arithmetic on samples the flow already computes:
// with the detector disabled the flow's behavior is byte-identical to a
// build without it, and with it enabled determinism is preserved — the
// verdict is a function of the deterministic sample stream only.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "osnt/common/time.hpp"

namespace osnt::tcp {

class RateLimitDetector {
 public:
  /// Consecutive in-band measurement windows before a verdict.
  static constexpr int kPlateauWindows = 4;
  /// Measurement-window length in units of the smoothed RTT (the
  /// queue-inflated one, not the floor).
  static constexpr double kWindowRtts = 8.0;
  /// Absolute floor on the window length. Go-back-N recovery turns
  /// goodput into a stall/burst square wave on the RTO timescale
  /// (min_rto is 1 ms in this stack); windows must integrate over
  /// several such cycles or the plateau test just samples the wave.
  static constexpr Picos kMinWindow = 2 * kPicosPerMilli;
  /// Half-width of the plateau band, as a fraction of the plateau rate:
  /// a window whose goodput lands within ±tolerance extends the
  /// plateau, anything else restarts it. Also the release test: a probe
  /// epoch whose goodput breaks above `(1 + tolerance) * verdict`
  /// proves the limiter no longer binds.
  static constexpr double kRateTolerance = 0.25;
  /// RTT must inflate past `kRttInflation * min_rtt` (shaper signature)
  /// — or a loss must land inside the plateau (policer signature) —
  /// for the plateau to count as *limited* rather than app-limited.
  static constexpr double kRttInflation = 1.5;
  /// While a verdict stands, run one probe epoch (exported rate =
  /// `kProbeGain` * verdict for a single window) every this many
  /// windows. 16 windows at the 2 ms floor = one epoch per ~32 ms.
  static constexpr int kProbeIntervalWindows = 16;
  /// Exported-rate multiple during a probe epoch. Must clear the
  /// release band `(1 + kRateTolerance)` with margin once the limiter
  /// is gone; 2x leaves the verdict band unambiguous.
  static constexpr double kProbeGain = 2.0;

  /// Feed one ACK's worth of estimator state. `delivery_rate_bps` is the
  /// instantaneous BBR-style sample; the caller passes 0 for samples it
  /// considers tainted (e.g. taken during loss recovery, where one
  /// hole-filling cumulative ACK aliases into a multi-Gb/s spike).
  /// `delivered_bytes` is the flow's cumulative delivered counter.
  /// Returns true when the exported verdict changed — a detection, a
  /// release, or a probe-epoch boundary — i.e. exactly when the caller
  /// should re-run `adapt_to_policer`.
  bool on_ack(Picos now, double delivery_rate_bps, Picos rtt,
              std::uint64_t delivered_bytes) {
    if (first_sample_ == 0) first_sample_ = now;
    if (rtt > 0) {
      min_rtt_ = min_rtt_ ? std::min(min_rtt_, rtt) : rtt;
      // Smoothed RTT (EWMA, gain 1/8) sizes the measurement window.
      srtt_ = srtt_ ? srtt_ - srtt_ / 8 + rtt / 8 : rtt;
      if (static_cast<double>(rtt) >
          kRttInflation * static_cast<double>(min_rtt_)) {
        rtt_inflated_ = true;
      }
    }
    // Probe-epoch samples run at an elevated rate on purpose; keep them
    // out of the verdict histogram.
    if (delivery_rate_bps > 0.0 && !probing_) bump_(delivery_rate_bps);
    if (srtt_ == 0) return false;  // no RTT yet → no window length
    if (win_start_ == 0) {
      win_start_ = now;
      win_delivered_ = delivered_bytes;
      return false;
    }
    const auto win_len = std::max<Picos>(
        static_cast<Picos>(kWindowRtts * static_cast<double>(srtt_)),
        kMinWindow);
    if (now - win_start_ < win_len) return false;
    const double r =
        static_cast<double>(delivered_bytes - win_delivered_) * 8.0 *
        static_cast<double>(kPicosPerSec) /
        static_cast<double>(now - win_start_);
    win_start_ = now;
    win_delivered_ = delivered_bytes;
    if (probing_) {
      // The epoch window just closed: did goodput follow the raised
      // rate? Breaking out of the verdict band means nothing held it
      // there — the limiter was lifted (or retimed far upward).
      probing_ = false;
      windows_since_probe_ = 0;
      if (r > detected_rate_bps_ * (1.0 + kRateTolerance)) {
        detected_ = false;
        detected_rate_bps_ = 0.0;
        ++releases_;
        reset_plateau();
        return true;
      }
      return true;  // still limited: re-clamp to the standing verdict
    }
    if (r <= 0.0) {
      reset_plateau();
      return false;
    }
    if (plateau_goodput_bps_ <= 0.0 ||
        r > plateau_goodput_bps_ * (1.0 + kRateTolerance) ||
        r < plateau_goodput_bps_ * (1.0 - kRateTolerance)) {
      reset_plateau();
      plateau_goodput_bps_ = r;
      plateau_len_ = 1;
      return start_probe_();
    }
    plateau_goodput_bps_ = std::max(plateau_goodput_bps_, r);
    ++plateau_len_;
    if (plateau_len_ >= kPlateauWindows &&
        (rtt_inflated_ || loss_in_plateau_)) {
      const double verdict = verdict_rate_();
      // A standing verdict only re-fires for a materially *lower* rate
      // (the bucket was retimed downward mid-flow); upward retimes are
      // caught by the probe epochs.
      if (verdict > 0.0 &&
          (!detected_ ||
           verdict < detected_rate_bps_ * (1.0 - kRateTolerance))) {
        detected_ = true;
        detected_rate_bps_ = verdict;
        detect_time_ = now - first_sample_;
        ++detections_;
        return true;
      }
    }
    return start_probe_();
  }

  /// Loss signal (fast retransmit / RTO) — the policer half of the
  /// corroboration: flat goodput plus drops means a bucket is
  /// discarding the overshoot.
  void on_loss() { loss_in_plateau_ = true; }

  [[nodiscard]] bool detected() const { return detected_; }
  /// Rate to hand to `adapt_to_policer`, in payload bits/s: the verdict
  /// — or `kProbeGain` times it during a release-probe epoch (0 when
  /// nothing is detected).
  [[nodiscard]] double detected_rate_bps() const {
    return probing_ ? kProbeGain * detected_rate_bps_
                    : detected_rate_bps_;
  }
  /// The standing verdict itself, unmodulated by probe epochs.
  [[nodiscard]] double verdict_rate_bps() const { return detected_rate_bps_; }
  [[nodiscard]] bool probing() const { return probing_; }
  [[nodiscard]] Picos min_rtt() const { return min_rtt_; }
  /// First-sample → most-recent-detection latency.
  [[nodiscard]] Picos detect_time() const { return detect_time_; }
  [[nodiscard]] std::uint64_t detections() const { return detections_; }
  [[nodiscard]] std::uint64_t releases() const { return releases_; }

 private:
  // Clean-sample histogram: kBins log-spaced bins over [1 Mb/s,
  // 100 Gb/s), ~1.2x wide each — fine enough to pin the limiter within
  // the controller's tolerance band, coarse enough that the token-rate
  // pileup lands in a couple of bins.
  static constexpr int kBins = 64;
  static constexpr double kLoBps = 1e6;
  static constexpr double kDecades = 5.0;  // 1e6 .. 1e11

  void bump_(double rate_bps) {
    const double pos = std::log10(rate_bps / kLoBps) * (kBins / kDecades);
    const int bin = std::clamp(static_cast<int>(pos), 0, kBins - 1);
    ++hist_[bin];
    ++hist_total_;
  }

  [[nodiscard]] static double bin_rate_(int bin) {
    return kLoBps * std::pow(10.0, (bin + 0.5) * (kDecades / kBins));
  }

  /// Rate estimate from the plateau's clean samples: the median of
  /// samples below the top of the distribution. Against a policer the
  /// post-stall bursts through the refilled token reserve pile up at
  /// the *line* rate; cutting everything within the tolerance band of
  /// the sample p90 removes that pileup and the median of the rest is
  /// the token-limited ACK clock. When the cut removes most of the mass
  /// the distribution was unimodal (shaper: every sample already sits
  /// at the token rate) and the plain median stands.
  [[nodiscard]] double verdict_rate_() const {
    if (hist_total_ == 0) return 0.0;
    const std::uint64_t p90_target = hist_total_ - hist_total_ / 10;
    std::uint64_t acc = 0;
    int p90_bin = kBins - 1;
    for (int i = 0; i < kBins; ++i) {
      acc += hist_[i];
      if (acc >= p90_target) {
        p90_bin = i;
        break;
      }
    }
    const double cut = (1.0 - kRateTolerance) * bin_rate_(p90_bin);
    std::uint64_t below = 0;
    for (int i = 0; i < kBins; ++i) {
      if (bin_rate_(i) < cut) below += hist_[i];
    }
    const std::uint64_t median_mass =
        below * 2 >= hist_total_ ? below : hist_total_;
    std::uint64_t half = (median_mass + 1) / 2;
    for (int i = 0; i < kBins; ++i) {
      if (median_mass != hist_total_ && bin_rate_(i) >= cut) break;
      if (hist_[i] >= half) return bin_rate_(i);
      half -= hist_[i];
    }
    return bin_rate_(kBins - 1);
  }

  /// At a window boundary with a standing verdict: time for the next
  /// release-probe epoch? Returns true when the exported rate changed.
  bool start_probe_() {
    if (!detected_) return false;
    if (++windows_since_probe_ < kProbeIntervalWindows) return false;
    probing_ = true;
    return true;
  }

  void reset_plateau() {
    plateau_goodput_bps_ = 0.0;
    plateau_len_ = 0;
    rtt_inflated_ = false;
    loss_in_plateau_ = false;
    hist_.fill(0);
    hist_total_ = 0;
  }

  Picos first_sample_ = 0;
  Picos min_rtt_ = 0;
  Picos srtt_ = 0;
  Picos win_start_ = 0;
  std::uint64_t win_delivered_ = 0;
  double plateau_goodput_bps_ = 0.0;
  int plateau_len_ = 0;
  bool rtt_inflated_ = false;
  bool loss_in_plateau_ = false;
  std::array<std::uint64_t, kBins> hist_{};
  std::uint64_t hist_total_ = 0;
  bool probing_ = false;
  int windows_since_probe_ = 0;
  bool detected_ = false;
  double detected_rate_bps_ = 0.0;
  Picos detect_time_ = 0;
  std::uint64_t detections_ = 0;
  std::uint64_t releases_ = 0;
};

}  // namespace osnt::tcp
