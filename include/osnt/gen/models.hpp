// Traffic shape models: inter-arrival processes (how bursty) and frame
// size distributions (how big). These compose with the RateController:
// the controller fixes the *mean* interval, the gap model shapes its
// distribution around that mean.
#pragma once

#include <cstdint>

#include "osnt/common/random.hpp"
#include "osnt/common/time.hpp"

namespace osnt::gen {

// ------------------------------------------------------------- gap models

/// Shapes departure intervals around a target mean.
class GapModel {
 public:
  virtual ~GapModel() = default;
  /// `mean` is the interval the rate controller asked for; the returned
  /// value must have (approximately) that mean. `min_gap` is the frame
  /// air time — intervals below it are meaningless on the wire.
  [[nodiscard]] virtual Picos sample(Rng& rng, Picos mean, Picos min_gap) = 0;
};

/// CBR: every interval exactly the mean.
class ConstantGap final : public GapModel {
 public:
  [[nodiscard]] Picos sample(Rng&, Picos mean, Picos min_gap) override;
};

/// Poisson arrivals: exponential intervals (mean-preserving, clamped to
/// the air time, which slightly raises the effective mean at high load —
/// exactly as a real shaped NIC behaves).
class PoissonGap final : public GapModel {
 public:
  [[nodiscard]] Picos sample(Rng& rng, Picos mean, Picos min_gap) override;
};

/// On/off bursts: `burst_len` frames back-to-back at line rate, then an
/// idle gap sized so the long-run mean matches the requested mean.
class BurstGap final : public GapModel {
 public:
  explicit BurstGap(std::size_t burst_len) noexcept
      : burst_len_(burst_len ? burst_len : 1) {}
  [[nodiscard]] Picos sample(Rng& rng, Picos mean, Picos min_gap) override;

 private:
  std::size_t burst_len_;
  std::size_t in_burst_ = 0;
};

// ------------------------------------------------------------ size models

/// Frame size (including FCS) distribution.
class SizeModel {
 public:
  virtual ~SizeModel() = default;
  [[nodiscard]] virtual std::size_t sample(Rng& rng) = 0;
};

class FixedSize final : public SizeModel {
 public:
  explicit FixedSize(std::size_t size) noexcept : size_(size) {}
  [[nodiscard]] std::size_t sample(Rng&) override { return size_; }

 private:
  std::size_t size_;
};

/// Classic "simple IMIX": 64 B : 594 B : 1518 B at 7 : 4 : 1.
class ImixSize final : public SizeModel {
 public:
  [[nodiscard]] std::size_t sample(Rng& rng) override;
};

}  // namespace osnt::gen
