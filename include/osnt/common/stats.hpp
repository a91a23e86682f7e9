// Streaming statistics used by every measurement path: latency
// distributions, jitter, rate accuracy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace osnt {

/// Streaming summary: count/mean/variance via Welford, plus min/max.
/// O(1) memory; use SampleSet when exact percentiles are needed.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  void reset() noexcept { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores all samples; supports exact quantiles. Sorting is deferred and
/// cached. Intended for measurement result sets (≤ millions of samples).
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return stats_.stddev(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }

  /// Exact quantile by linear interpolation; q in [0,1]. 0 on empty set.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

  void clear();

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  RunningStats stats_;
};

}  // namespace osnt
