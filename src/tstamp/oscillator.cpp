#include "osnt/tstamp/oscillator.hpp"

#include <algorithm>
#include <cmath>

namespace osnt::tstamp {

std::uint64_t Oscillator::ticks_at(Picos truth) {
  truth = std::max(truth, last_truth_);
  // Integrate in bounded steps so the random-walk statistics don't depend
  // on the query pattern more than necessary.
  constexpr Picos kMaxStep = 1 * kPicosPerMilli;
  while (last_truth_ < truth) {
    const Picos step = std::min(kMaxStep, truth - last_truth_);
    const double dt = to_seconds(step);
    if (cfg_.random_walk_ppm > 0.0) {
      freq_error_ppm_ +=
          cfg_.random_walk_ppm * std::sqrt(dt) * rng_.normal(0.0, 1.0);
    }
    phase_ticks_ += dt * kDatapathHz * (1.0 + freq_error_ppm_ * 1e-6);
    last_truth_ += step;
  }
  return static_cast<std::uint64_t>(phase_ticks_);
}

}  // namespace osnt::tstamp
