// osnt::burst — pattern vocabulary for line-rate burst & DDoS envelope
// generation (DESIGN.md §16). A PatternConfig names one of four traffic
// envelopes (P4TG's periodic-pattern vocabulary):
//
//   on_off         square-wave duty-cycle bursts: `duty`·`period` on at
//                  `rate_gbps`, the remainder silent
//   strobe         short max-rate pulses: `pulse_frames` back-to-back
//                  frames at the top of every `period`
//   heavy_tail     self-similar burst loads: Pareto(alpha)-distributed on
//                  periods (mean `mean_on`) separated by exponential idle
//                  gaps (mean `mean_off`)
//   amplification  reflection-shaped many-to-one DDoS: `attackers`
//                  spoofed reflector sources converge on one victim
//                  port, each volley carrying the `amp_factor`-inflated
//                  response to a `request_size`-byte request, gated by a
//                  `period`/`duty` macro envelope (attack waves)
//
// Configs are pure data + validation; the schedule math lives in
// burst::BurstSchedule and the dataplane hookup in burst::BurstSourceBlock.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "osnt/common/time.hpp"

namespace osnt::burst {

/// Configuration or schedule-construction failure.
class BurstError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Pattern { kOnOff, kStrobe, kHeavyTail, kAmplification };

/// Spelled names, in enum order — the vocabulary JSON stanzas accept.
[[nodiscard]] const std::vector<std::string>& known_patterns();
[[nodiscard]] const char* pattern_name(Pattern p) noexcept;

/// L4 framing of generated frames: UDP datagrams (reflection traffic) or
/// bare TCP SYNs (connection-exhaustion floods).
enum class L4 { kUdp, kTcpSyn };

struct PatternConfig {
  Pattern pattern = Pattern::kOnOff;

  // --- common ---
  double rate_gbps = 10.0;      ///< emission rate inside a burst (line rate)
  std::size_t frame_size = 64;  ///< frame incl. FCS (amplification: response)
  std::size_t flows = 16;       ///< spoofed 5-tuple spread (ECMP entropy)
  L4 l4 = L4::kUdp;
  std::uint64_t seed = 1;       ///< loaders derive this from the trial seed

  // --- on_off / strobe / amplification envelope ---
  Picos period = 100 * kPicosPerMicro;
  double duty = 0.5;            ///< on fraction of each period (on_off,
                                ///< amplification macro envelope)

  // --- strobe ---
  std::size_t pulse_frames = 32;

  // --- heavy_tail ---
  double alpha = 1.5;           ///< Pareto shape in (1, 2.5]
  Picos mean_on = 50 * kPicosPerMicro;
  Picos mean_off = 50 * kPicosPerMicro;

  // --- amplification ---
  std::size_t attackers = 64;     ///< spoofed reflector source count
  std::size_t request_size = 64;  ///< bytes of the (unmodeled) request
  double amp_factor = 10.0;       ///< response bytes per request byte

  /// Throws BurstError naming the offending field.
  void validate() const;

  /// Per-frame serialization slot at `rate_gbps` incl. preamble/IFG —
  /// the back-to-back inter-departure time inside a burst.
  [[nodiscard]] Picos slot() const noexcept;

  /// Number of distinct packet templates the pattern draws from
  /// (`attackers` for amplification, `flows` otherwise).
  [[nodiscard]] std::size_t template_count() const noexcept;
};

}  // namespace osnt::burst
