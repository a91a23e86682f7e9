#include "osnt/gen/models.hpp"

#include <algorithm>

namespace osnt::gen {

Picos ConstantGap::sample(Rng&, Picos mean, Picos min_gap) {
  return std::max(mean, min_gap);
}

Picos PoissonGap::sample(Rng& rng, Picos mean, Picos min_gap) {
  const double m = static_cast<double>(std::max(mean, min_gap));
  const Picos g = static_cast<Picos>(rng.exponential(m));
  return std::max(g, min_gap);
}

Picos BurstGap::sample(Rng&, Picos mean, Picos min_gap) {
  // Long-run mean over a burst of N frames + 1 idle gap must equal `mean`:
  // (N-1)*min_gap + idle = N*mean  →  idle = N*mean - (N-1)*min_gap.
  ++in_burst_;
  if (in_burst_ < burst_len_) return min_gap;
  in_burst_ = 0;
  const auto n = static_cast<Picos>(burst_len_);
  const Picos idle = n * std::max(mean, min_gap) - (n - 1) * min_gap;
  return std::max(idle, min_gap);
}

std::size_t ImixSize::sample(Rng& rng) {
  const std::uint64_t r = rng.uniform_int(0, 11);
  if (r < 7) return 64;
  if (r < 11) return 594;
  return 1518;
}

}  // namespace osnt::gen
