#include "osnt/gen/models.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

namespace {
// E[X] of a bounded Pareto on [lo, hi] with shape alpha != 1.
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

ParetoGap::ParetoGap(double alpha)
    : alpha_(alpha), raw_mean_(bounded_pareto_mean(alpha, kParetoLo, kParetoHi)) {
  if (alpha <= 1.0 || alpha > 2.5)
    throw std::invalid_argument("ParetoGap: alpha must be in (1, 2.5]");
}

Picos ParetoGap::sample(Rng& rng, Picos mean, Picos min_gap) {
  const double x = rng.pareto(alpha_, kParetoLo, kParetoHi) / raw_mean_;
  const Picos g = static_cast<Picos>(
      x * static_cast<double>(std::max(mean, min_gap)));
  return std::max(g, min_gap);
}

std::size_t ImixSize::sample(Rng& rng) {
  const std::uint64_t r = rng.uniform_int(0, 11);
  if (r < 7) return 64;
  if (r < 11) return 594;
  return 1518;
}

}  // namespace osnt::gen
