// RFC 2544-style automated benchmarking built on OSNT: zero-loss
// throughput search and frame-loss-rate sweep. The suite is generic over
// a trial runner so each trial can rebuild a pristine simulated testbed;
// searches and sweeps speak the unified core::Trial vocabulary
// (core/trial.hpp), and the sweeps shard independent work across cores
// via core::Runner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "osnt/common/stats.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/core/trial.hpp"

namespace osnt::core {

/// Searches run from a floor of 2% of line rate up to line rate.
struct ThroughputSearchConfig {
  double resolution = 0.005; ///< stop when hi-lo below this
  double loss_tolerance = 0.0;
};

struct ThroughputPoint {
  std::size_t frame_size = 0;
  double max_load_fraction = 0.0;  ///< highest passing load
  double gbps = 0.0;               ///< offered L1 Gb/s at that load
  double mpps = 0.0;
  std::uint32_t trials = 0;
  SampleSet latency_at_max_ns;     ///< latency at the passing load
  /// Quality flag: kOk numbers are trustworthy; a timed-out/failed size
  /// carries zeroed numbers plus the error, and the sweep still returns.
  TrialOutcome outcome = TrialOutcome::kOk;
  std::string error;  ///< what() of the search-killing exception
};

/// Throws std::invalid_argument unless cfg.resolution lies in (0, 0.98),
/// the span of the search: a resolution of 0 or below (or NaN) gives no
/// stopping rule, and one of 0.98 or more stops the search before its
/// first bisection.
void validate(const ThroughputSearchConfig& cfg);

/// Binary-search the highest zero-loss (or tolerance) load for one size.
/// Inherently sequential: each probe depends on the previous verdict. It
/// ends at cfg.resolution or when the midpoint no longer moves (adjacent
/// doubles), whichever comes first. Throws what validate(cfg) throws.
[[nodiscard]] ThroughputPoint find_throughput(
    const Trial& run, std::size_t frame_size,
    ThroughputSearchConfig cfg = ThroughputSearchConfig());

/// Standard RFC 2544 frame-size sweep. Each size's binary search stays
/// sequential, but sizes are independent and shard across `runner.jobs`
/// workers; the returned points are in `frame_sizes` order for any job
/// count.
[[nodiscard]] std::vector<ThroughputPoint> throughput_sweep(
    const Trial& run, std::span<const std::size_t> frame_sizes,
    ThroughputSearchConfig cfg = ThroughputSearchConfig(),
    const RunnerConfig& runner = RunnerConfig());

/// Frame loss rate at a ladder of loads (RFC 2544 §26.3): returns
/// (load_fraction, loss_fraction) pairs from `hi` down in `step`s. Grid
/// points are independent trials and shard across `runner.jobs`.
struct LossPoint {
  double load_fraction = 0.0;
  double loss_fraction = 0.0;
  double offered_gbps = 0.0;
  /// Quality flag: numbers are zeroed (not trustworthy) unless the
  /// outcome is kOk/kRetried. The ladder completes either way.
  TrialOutcome outcome = TrialOutcome::kOk;
};
[[nodiscard]] std::vector<LossPoint> loss_rate_sweep(
    const Trial& run, std::size_t frame_size, double hi = 1.0,
    double step = 0.1, const RunnerConfig& runner = RunnerConfig());

/// The canonical RFC 2544 frame sizes.
[[nodiscard]] std::span<const std::size_t> rfc2544_frame_sizes() noexcept;

}  // namespace osnt::core
