#include "osnt/burst/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "osnt/net/packet.hpp"

namespace osnt::burst {

namespace {

// E[X] of a bounded Pareto on [lo, hi] with shape alpha != 1, which
// rescales a Pareto draw to the requested mean on-period length.
double bounded_pareto_mean(double alpha, double lo, double hi) {
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return la * alpha / (alpha - 1.0) *
         (1.0 / std::pow(lo, alpha - 1.0) - 1.0 / std::pow(hi, alpha - 1.0)) /
         (1.0 - la / ha);
}
constexpr double kParetoLo = 1.0;
constexpr double kParetoHi = 1000.0;

}  // namespace

BurstSchedule::BurstSchedule(const PatternConfig& cfg, Picos horizon)
    : cfg_(cfg), horizon_(horizon) {
  cfg_.validate();
  if (horizon_ <= 0) throw BurstError("burst: schedule needs horizon > 0");
  switch (cfg_.pattern) {
    case Pattern::kOnOff: build_on_off(); break;
    case Pattern::kStrobe: build_strobe(); break;
    case Pattern::kHeavyTail: build_heavy_tail(); break;
    case Pattern::kAmplification: build_amplification(); break;
  }
  // Invariant emission modes rely on: frame departures strictly increase
  // across bursts (you cannot emit above line rate). A pattern that
  // overruns its period is a config error, not wraparound.
  const Picos slot = cfg_.slot();
  for (std::size_t i = 1; i < bursts_.size(); ++i) {
    const Burst& prev = bursts_[i - 1];
    const Picos prev_end =
        prev.start + offsets_[prev.first + prev.count - 1] + slot;
    if (bursts_[i].start < prev_end) {
      throw BurstError(
          "burst: " + std::string(pattern_name(cfg_.pattern)) +
          " overruns its period — lower pulse_frames/duty/amp_factor or "
          "raise period");
    }
  }
}

void BurstSchedule::append_burst(Picos start, std::size_t count,
                                 std::size_t frame_size, Rng& rng) {
  if (count == 0) return;
  if (total_frames() + count > kMaxFrames) {
    throw BurstError("burst: schedule exceeds " +
                     std::to_string(kMaxFrames) +
                     " frames — shorten the horizon or lower the rate");
  }
  const Picos slot = net::serialization_time(
      frame_size + net::kEthPerFrameOverhead, cfg_.rate_gbps);
  const std::size_t ntmpl = cfg_.template_count();
  bursts_.push_back({start, offsets_.size(), count});
  for (std::size_t i = 0; i < count; ++i) {
    offsets_.push_back(static_cast<Picos>(i) * slot);
    lengths_.push_back(static_cast<std::uint16_t>(frame_size));
    flow_ids_.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, ntmpl - 1)));
    total_wire_bytes_ += frame_size;
  }
}

void BurstSchedule::build_on_off() {
  Rng rng(cfg_.seed);
  const Picos slot = cfg_.slot();
  const auto on_window =
      static_cast<Picos>(cfg_.duty * static_cast<double>(cfg_.period));
  // Frames whose serialization slot fits inside the on window; a sliver
  // window still carries one frame so low duty cycles stay visible.
  const std::size_t per_burst = std::max<std::size_t>(
      1, static_cast<std::size_t>(on_window / slot));
  for (Picos t = 0; t < horizon_; t += cfg_.period) {
    append_burst(t, per_burst, cfg_.frame_size, rng);
  }
}

void BurstSchedule::build_strobe() {
  Rng rng(cfg_.seed);
  for (Picos t = 0; t < horizon_; t += cfg_.period) {
    append_burst(t, cfg_.pulse_frames, cfg_.frame_size, rng);
  }
}

void BurstSchedule::build_heavy_tail() {
  Rng rng(cfg_.seed);
  const Picos slot = cfg_.slot();
  const double raw_mean = bounded_pareto_mean(cfg_.alpha, kParetoLo, kParetoHi);
  Picos t = 0;
  while (t < horizon_) {
    // Pareto on-period rescaled to mean_on, quantized to whole frames.
    const double x = rng.pareto(cfg_.alpha, kParetoLo, kParetoHi) / raw_mean;
    const auto on = static_cast<Picos>(
        x * static_cast<double>(cfg_.mean_on));
    const std::size_t frames =
        std::max<std::size_t>(1, static_cast<std::size_t>(on / slot));
    append_burst(t, frames, cfg_.frame_size, rng);
    const auto off = static_cast<Picos>(
        rng.exponential(static_cast<double>(cfg_.mean_off)));
    t += static_cast<Picos>(frames) * slot + std::max<Picos>(off, slot);
  }
}

void BurstSchedule::build_amplification() {
  Rng rng(cfg_.seed);
  // One volley = the reflected response to one request: amp_factor ×
  // request bytes, shipped as back-to-back response frames from a single
  // spoofed reflector. Volleys tile each period's on window, so during an
  // attack wave the victim sees a solid rate_gbps of response traffic.
  const std::size_t volley_frames = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(cfg_.amp_factor *
                       static_cast<double>(cfg_.request_size) /
                       static_cast<double>(cfg_.frame_size))));
  const Picos slot = cfg_.slot();
  const Picos volley_air = static_cast<Picos>(volley_frames) * slot;
  const auto on_window =
      static_cast<Picos>(cfg_.duty * static_cast<double>(cfg_.period));
  for (Picos t = 0; t < horizon_; t += cfg_.period) {
    for (Picos v = 0; v + volley_air <= on_window || v == 0; v += volley_air) {
      // Each volley is one reflector's response stream: a single spoofed
      // source for the whole volley (flow ids drawn per volley, not per
      // frame, matching how a reflection actually arrives).
      const auto attacker =
          static_cast<std::uint32_t>(rng.uniform_int(0, cfg_.attackers - 1));
      if (total_frames() + volley_frames > kMaxFrames) {
        throw BurstError("burst: schedule exceeds " +
                         std::to_string(kMaxFrames) +
                         " frames — shorten the horizon or lower the rate");
      }
      bursts_.push_back({t + v, offsets_.size(), volley_frames});
      for (std::size_t i = 0; i < volley_frames; ++i) {
        offsets_.push_back(static_cast<Picos>(i) * slot);
        lengths_.push_back(static_cast<std::uint16_t>(cfg_.frame_size));
        flow_ids_.push_back(attacker);
        total_wire_bytes_ += cfg_.frame_size;
      }
    }
  }
}

}  // namespace osnt::burst
