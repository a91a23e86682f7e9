#include "osnt/burst/pattern.hpp"

#include "osnt/net/packet.hpp"

namespace osnt::burst {

const std::vector<std::string>& known_patterns() {
  static const std::vector<std::string> kNames = {
      "on_off", "strobe", "heavy_tail", "amplification"};
  return kNames;
}

const char* pattern_name(Pattern p) noexcept {
  switch (p) {
    case Pattern::kOnOff: return "on_off";
    case Pattern::kStrobe: return "strobe";
    case Pattern::kHeavyTail: return "heavy_tail";
    case Pattern::kAmplification: return "amplification";
  }
  return "?";
}

void PatternConfig::validate() const {
  const auto bad = [this](const std::string& why) {
    throw BurstError("burst: " + std::string(pattern_name(pattern)) + " " +
                     why);
  };
  if (rate_gbps <= 0.0) bad("needs rate_gbps > 0");
  if (frame_size < net::kEthMinFrame || frame_size > net::kEthMaxFrame) {
    bad("needs frame_size in [64, 1518]");
  }
  if (flows == 0) bad("needs flows >= 1");
  switch (pattern) {
    case Pattern::kOnOff:
      if (period <= 0) bad("needs period > 0");
      if (duty <= 0.0 || duty > 1.0) bad("needs duty in (0, 1]");
      break;
    case Pattern::kStrobe:
      if (period <= 0) bad("needs period > 0");
      if (pulse_frames == 0) bad("needs pulse_frames >= 1");
      break;
    case Pattern::kHeavyTail:
      if (alpha <= 1.0 || alpha > 2.5) bad("needs alpha in (1, 2.5]");
      if (mean_on <= 0) bad("needs mean_on > 0");
      if (mean_off <= 0) bad("needs mean_off > 0");
      break;
    case Pattern::kAmplification:
      if (period <= 0) bad("needs period > 0");
      if (duty <= 0.0 || duty > 1.0) bad("needs duty in (0, 1]");
      if (attackers == 0) bad("needs attackers >= 1");
      if (request_size < net::kEthMinFrame ||
          request_size > net::kEthMaxFrame) {
        bad("needs request_size in [64, 1518]");
      }
      if (amp_factor < 1.0) bad("needs amp_factor >= 1");
      break;
  }
}

Picos PatternConfig::slot() const noexcept {
  return net::serialization_time(frame_size + net::kEthPerFrameOverhead,
                                 rate_gbps);
}

std::size_t PatternConfig::template_count() const noexcept {
  return pattern == Pattern::kAmplification ? attackers : flows;
}

}  // namespace osnt::burst
