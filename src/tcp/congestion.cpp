#include "osnt/tcp/congestion.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace osnt::tcp {
namespace {

/// Initial window, in segments (RFC 6928 IW10).
constexpr std::uint64_t kInitialCwndSegments = 10;
/// Window floor, in segments.
constexpr std::uint64_t kMinCwndSegments = 2;
/// bbr_cwnd_min_target = 4 packets.
constexpr std::uint64_t kBbrMinCwndSegments = 4;

// How far above the policer BDP an adapted controller may keep in
// flight. A quarter-BDP of slack keeps the ACK clock alive through
// delivery-rate jitter without rebuilding the standing queue the
// adaptation exists to avoid; it also bounds post-adaptation RTT at
// ~1.25x min_rtt.
constexpr double kPolicerHeadroom = 1.25;


std::uint64_t policer_bdp_bytes(double rate_bps, Picos min_rtt,
                                std::uint64_t floor) {
  if (rate_bps <= 0.0 || min_rtt == 0) return ~std::uint64_t{0};
  const double bdp =
      rate_bps * static_cast<double>(min_rtt) / kPicosPerSec / 8.0;
  return std::max(static_cast<std::uint64_t>(kPolicerHeadroom * bdp), floor);
}

// ------------------------------------------------------------- NewReno
// RFC 5681 window arithmetic with appropriate-byte-counting: slow start
// below ssthresh (cwnd += bytes_acked), one MSS per cwnd-worth of ACKed
// bytes above it. Fast recovery keeps the halved window (no artificial
// inflation — the flow's go-back-N retransmit logic makes inflation moot).
class NewReno final : public CongestionControl {
 public:
  explicit NewReno(CcConfig cfg)
      : mss_(cfg.mss),
        min_cwnd_(kMinCwndSegments * cfg.mss),
        cwnd_(kInitialCwndSegments * cfg.mss) {}

  void on_ack(const AckEvent& ev) override {
    if (cwnd_ < ssthresh_) {
      cwnd_ += ev.bytes_acked;  // slow start: doubles per RTT
      return;
    }
    acked_accum_ += ev.bytes_acked;
    while (acked_accum_ >= cwnd_) {  // congestion avoidance: +1 MSS / RTT
      acked_accum_ -= cwnd_;
      cwnd_ += mss_;
    }
  }

  void on_loss(Picos, std::uint64_t) override {
    ssthresh_ = std::max(cwnd_ / 2, min_cwnd_);
    cwnd_ = ssthresh_;
    acked_accum_ = 0;
  }

  void on_rto(Picos) override {
    ssthresh_ = std::max(cwnd_ / 2, min_cwnd_);
    cwnd_ = std::max<std::uint64_t>(mss_, 1);  // RFC 5681 LW = 1 segment
    acked_accum_ = 0;
  }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override { return 0.0; }
  [[nodiscard]] const char* name() const override { return "newreno"; }

 private:
  std::uint64_t mss_;
  std::uint64_t min_cwnd_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_ = ~std::uint64_t{0};
  std::uint64_t acked_accum_ = 0;
};

// ----------------------------------------------------------- CubicLite
// RFC 8312 window curve W(t) = C·(t−K)³ + W_max with β=0.7, C=0.4 (units
// of MSS and seconds). Keeps: the cubic growth function, the β multiplic-
// ative decrease, epoch reset on loss. Drops: TCP-friendliness region and
// fast convergence (single-flow sims don't need inter-flow fairness).
class CubicLite final : public CongestionControl {
 public:
  explicit CubicLite(CcConfig cfg)
      : mss_(cfg.mss),
        min_cwnd_(kMinCwndSegments * cfg.mss),
        cwnd_(static_cast<double>(kInitialCwndSegments * cfg.mss)) {}

  void on_ack(const AckEvent& ev) override {
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(ev.bytes_acked);
      return;
    }
    if (epoch_start_ == 0) {
      epoch_start_ = ev.now;
      const double wmax_mss = std::max(w_max_mss_, cwnd_ / mss_);
      w_max_mss_ = wmax_mss;
      k_ = std::cbrt(wmax_mss * (1.0 - kBeta) / kC);
    }
    const double t =
        static_cast<double>(ev.now - epoch_start_) / kPicosPerSec;
    const double target_mss = kC * std::pow(t - k_, 3.0) + w_max_mss_;
    const double cwnd_mss = cwnd_ / mss_;
    if (target_mss > cwnd_mss) {
      // Standard per-ACK increment: reach `target` in one RTT's worth of
      // ACKs (cwnd/mss of them).
      cwnd_ += mss_ * (target_mss - cwnd_mss) / cwnd_mss;
    } else {
      cwnd_ += mss_ * 0.01 / cwnd_mss;  // minimal growth in the plateau
    }
    if (policer_cap_ > 0.0) cwnd_ = std::min(cwnd_, policer_cap_);
  }

  void adapt_to_policer(double rate_bps, Picos min_rtt) override {
    if (rate_bps <= 0.0 || min_rtt == 0) {
      policer_cap_ = 0.0;  // verdict revoked: resume the cubic curve
      return;
    }
    const auto cap = policer_bdp_bytes(rate_bps, min_rtt, min_cwnd_);
    policer_cap_ = static_cast<double>(cap);
    // Pin the curve's plateau at the cap so the next epoch converges
    // there instead of re-probing the pre-policer W_max.
    cwnd_ = std::min(cwnd_, policer_cap_);
    ssthresh_ = std::min(ssthresh_, policer_cap_);
    w_max_mss_ = policer_cap_ / mss_;
    epoch_start_ = 0;
  }

  void on_loss(Picos, std::uint64_t) override {
    w_max_mss_ = cwnd_ / mss_;
    cwnd_ = std::max(cwnd_ * kBeta, static_cast<double>(min_cwnd_));
    ssthresh_ = cwnd_;
    epoch_start_ = 0;
  }

  void on_rto(Picos) override {
    w_max_mss_ = cwnd_ / mss_;
    ssthresh_ = std::max(cwnd_ * kBeta, static_cast<double>(min_cwnd_));
    cwnd_ = static_cast<double>(mss_);
    epoch_start_ = 0;
  }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override {
    return static_cast<std::uint64_t>(cwnd_);
  }
  [[nodiscard]] double pacing_rate_bps() const override { return 0.0; }
  [[nodiscard]] const char* name() const override { return "cubic"; }

 private:
  static constexpr double kBeta = 0.7;
  static constexpr double kC = 0.4;

  double mss_;
  std::uint64_t min_cwnd_;
  double cwnd_;
  double ssthresh_ = 1e18;
  double w_max_mss_ = 0.0;
  double k_ = 0.0;
  Picos epoch_start_ = 0;
  double policer_cap_ = 0.0;  ///< 0 = no detected policer
};

// ------------------------------------------------------------- BbrLite
// Model-based control after R-TCP's rtcp_bbr.c (Linux BBRv1): the flow's
// rate is set from an explicit model — bottleneck bandwidth (windowed max
// of delivery-rate samples over the last 10 packet-timed rounds) and
// min_rtt — instead of from a loss-driven window. Gains are the BBRv1
// constants: 2/ln2 ≈ 2.885 in startup (doubles the sending rate per
// round), its inverse to drain the startup queue, then an 8-phase
// pacing-gain cycle [1.25, 0.75, 1×6] probing for more bandwidth.
// Keeps: the mode machine, windowed-max bw filter, full-bw plateau
// detection (3 rounds under 1.25× growth), BDP-derived cwnd, packet
// conservation on loss. Drops: probe_rtt mode, min_rtt window aging,
// cycle-phase randomization (determinism), long-term bw sampling.
class BbrLite final : public CongestionControl {
 public:
  explicit BbrLite(CcConfig cfg)
      : mss_(cfg.mss),
        min_cwnd_(kBbrMinCwndSegments * cfg.mss),
        initial_cwnd_(kInitialCwndSegments * cfg.mss),
        cwnd_(initial_cwnd_) {}

  void on_ack(const AckEvent& ev) override {
    if (ev.rtt > 0) {
      min_rtt_ = min_rtt_ ? std::min(min_rtt_, ev.rtt) : ev.rtt;
    }
    if (ev.round_start) {
      ++round_;
      round_bw_[round_ % kBwWindowRounds] = 0.0;
      advance_mode(ev);
    }
    if (ev.delivery_rate_bps > 0.0) {
      double& slot = round_bw_[round_ % kBwWindowRounds];
      slot = std::max(slot, ev.delivery_rate_bps);
    }
    if (mode_ == Mode::kDrain && ev.bytes_in_flight <= bdp_bytes()) {
      mode_ = Mode::kProbeBw;
      cycle_idx_ = 0;
    }
    update_cwnd();
  }

  void on_loss(Picos, std::uint64_t bytes_in_flight) override {
    // Packet conservation with a 7/8 haircut: BBRv1 does not treat loss
    // as a congestion signal for the model, but recovery caps cwnd near
    // what is actually in flight (rtcp_bbr's bbr_set_cwnd recovery path,
    // minus the save/restore bookkeeping).
    const std::uint64_t target =
        std::max(bytes_in_flight - bytes_in_flight / 8, min_cwnd_);
    cwnd_ = std::min(cwnd_, target);
  }

  void on_rto(Picos) override {
    // An RTO means the pipe drained: the windowed bw samples taken while
    // the loop was stalled are not representative, so rebuild the model
    // from scratch like a restart-from-idle — back to startup with the
    // high gain (min_rtt survives; it is a property of the path).
    cwnd_ = min_cwnd_;
    mode_ = Mode::kStartup;
    full_bw_ = 0.0;
    full_bw_cnt_ = 0;
    cycle_idx_ = 0;
  }

  void adapt_to_policer(double rate_bps, Picos min_rtt) override {
    policer_rate_ = rate_bps;
    if (rate_bps <= 0.0) return;  // revoked: model rebuilds from samples
    if (min_rtt > 0) {
      min_rtt_ = min_rtt_ ? std::min(min_rtt_, min_rtt) : min_rtt;
    }
    // A policer defines the plateau: startup's 2.885x overshoot and
    // drain have nothing left to discover, so jump straight to the
    // probe cycle (at a cruise phase; phase 0's 1.25x probe comes
    // around on the normal cadence and is what re-tests the limiter).
    if (mode_ != Mode::kProbeBw) {
      mode_ = Mode::kProbeBw;
      cycle_idx_ = 2;
      full_bw_ = bw_bps();
      full_bw_cnt_ = 0;
    }
    cwnd_ = std::min(cwnd_, policer_cap_bytes());
  }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }

  [[nodiscard]] double pacing_rate_bps() const override {
    const double bw = bw_bps();
    if (bw <= 0.0) return 0.0;  // pre-model: burst the initial window
    return pacing_gain() * bw;
  }

  [[nodiscard]] const char* name() const override { return "bbr"; }

  /// The windowed-max bottleneck-bandwidth estimate (test seam).
  [[nodiscard]] double bw_estimate_bps() const { return bw_bps(); }
  [[nodiscard]] bool startup_done() const { return mode_ != Mode::kStartup; }

 private:
  enum class Mode { kStartup, kDrain, kProbeBw };

  static constexpr double kHighGain = 2.885;  // 2/ln2, BBRv1 startup gain
  static constexpr double kDrainGain = 1.0 / kHighGain;
  static constexpr double kCwndGain = 2.0;
  static constexpr double kFullBwThresh = 1.25;
  static constexpr int kFullBwRounds = 3;
  static constexpr int kBwWindowRounds = 10;  // bbr_bw_rtts = CYCLE_LEN + 2
  static constexpr std::array<double, 8> kCycleGain = {1.25, 0.75, 1.0, 1.0,
                                                       1.0,  1.0,  1.0, 1.0};

  [[nodiscard]] double bw_bps() const {
    // While a policer verdict stands it *is* the bandwidth model. The
    // windowed max is poisoned in both directions under a policer:
    // upward by recovery-aliased line-rate spikes (which re-ignite the
    // loss storm the adaptation exists to quell), downward by RTO
    // stalls (which would refuse the detector's probe epochs). The
    // detector re-parameterizes this on every verdict change, including
    // the temporary probe-epoch uplift.
    if (policer_rate_ > 0.0) return policer_rate_;
    double bw = 0.0;
    for (double b : round_bw_) bw = std::max(bw, b);
    return bw;
  }

  [[nodiscard]] std::uint64_t policer_cap_bytes() const {
    return policer_bdp_bytes(policer_rate_, min_rtt_, min_cwnd_);
  }

  [[nodiscard]] double pacing_gain() const {
    switch (mode_) {
      case Mode::kStartup: return kHighGain;
      case Mode::kDrain: return kDrainGain;
      case Mode::kProbeBw:
        // Adapted flows cruise at exactly the verdict: the gain cycle's
        // 1.25x round would shave drops off a standing policer every
        // cycle for nothing (release probing is the detector's job, on
        // its own cadence), and the 0.75x round would under-run it.
        return policer_rate_ > 0.0 ? 1.0 : kCycleGain[cycle_idx_];
    }
    return 1.0;
  }

  [[nodiscard]] std::uint64_t bdp_bytes() const {
    const double bw = bw_bps();
    if (bw <= 0.0 || min_rtt_ == 0) return initial_cwnd_;
    return static_cast<std::uint64_t>(
        bw * static_cast<double>(min_rtt_) / kPicosPerSec / 8.0);
  }

  void advance_mode(const AckEvent&) {
    switch (mode_) {
      case Mode::kStartup: {
        const double bw = bw_bps();
        if (bw >= full_bw_ * kFullBwThresh) {
          full_bw_ = bw;
          full_bw_cnt_ = 0;
        } else if (full_bw_ > 0.0 && ++full_bw_cnt_ >= kFullBwRounds) {
          mode_ = Mode::kDrain;  // bw plateaued: pipe is full
        }
        break;
      }
      case Mode::kDrain:
        break;  // exits on the inflight <= BDP check in on_ack
      case Mode::kProbeBw:
        cycle_idx_ = (cycle_idx_ + 1) % kCycleGain.size();
        break;
    }
  }

  void update_cwnd() {
    const double gain = mode_ == Mode::kStartup ? kHighGain : kCwndGain;
    const std::uint64_t target = std::max(
        static_cast<std::uint64_t>(gain * static_cast<double>(bdp_bytes())),
        min_cwnd_);
    if (bw_bps() <= 0.0) {
      cwnd_ = std::max(cwnd_, initial_cwnd_);
      return;
    }
    // Grow toward the model target (at most one step per ACK keeps the
    // post-RTO rebuild gradual, like bbr's cwnd += acked ramp).
    cwnd_ = cwnd_ < target ? std::min(cwnd_ + mss_, target) : target;
    if (policer_rate_ > 0.0) cwnd_ = std::min(cwnd_, policer_cap_bytes());
  }

  std::uint64_t mss_;
  std::uint64_t min_cwnd_;
  std::uint64_t initial_cwnd_;
  std::uint64_t cwnd_;
  Mode mode_ = Mode::kStartup;
  std::uint64_t round_ = 0;
  std::array<double, kBwWindowRounds> round_bw_{};
  Picos min_rtt_ = 0;
  double full_bw_ = 0.0;
  int full_bw_cnt_ = 0;
  std::size_t cycle_idx_ = 0;
  double policer_rate_ = 0.0;  ///< detected policer rate; 0 = none
};

}  // namespace

std::unique_ptr<CongestionControl> make_congestion_control(
    const std::string& name, CcConfig cfg) {
  if (name == "newreno") return std::make_unique<NewReno>(cfg);
  if (name == "cubic") return std::make_unique<CubicLite>(cfg);
  if (name == "bbr") return std::make_unique<BbrLite>(cfg);
  throw std::invalid_argument("unknown congestion control: " + name +
                              " (expected newreno|cubic|bbr)");
}

}  // namespace osnt::tcp
