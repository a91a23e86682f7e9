// Free-running oscillator model: maps ground-truth simulation time to a
// tick count at the nominal kDatapathHz, with a static ppm offset plus a
// random-walk frequency component — the imperfection that GPS discipline
// must correct.
#pragma once

#include <cstdint>

#include "osnt/common/random.hpp"
#include "osnt/common/time.hpp"
#include "osnt/tstamp/timestamp.hpp"

namespace osnt::tstamp {

struct OscillatorConfig {
  double ppm_offset = 0.0;          ///< static frequency error
  double random_walk_ppm = 0.0;     ///< per-sqrt(second) random walk intensity
  std::uint64_t seed = 42;
};

class Oscillator {
 public:
  using Config = OscillatorConfig;

  explicit Oscillator(Config cfg = Config()) noexcept
      : cfg_(cfg), rng_(cfg.seed), freq_error_ppm_(cfg.ppm_offset) {}

  /// Tick count at ground-truth time `truth`. Must be called with
  /// non-decreasing `truth` (the simulator is monotonic).
  [[nodiscard]] std::uint64_t ticks_at(Picos truth);

  /// Current instantaneous frequency error (ppm) — for diagnostics.
  [[nodiscard]] double frequency_error_ppm() const noexcept {
    return freq_error_ppm_;
  }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  Config cfg_;
  Rng rng_;
  double freq_error_ppm_;
  Picos last_truth_ = 0;
  double phase_ticks_ = 0.0;  ///< accumulated (fractional) ticks
};

}  // namespace osnt::tstamp
