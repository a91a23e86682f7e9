// Unified trial vocabulary for the experiment layer. Every measurement —
// RFC 2544 searches, loss ladders, CLI trial batches — is phrased as "run
// one trial at this TrialPoint on a fresh testbed and report TrialStats",
// so one functor type (`Trial`) feeds both the serial searches and the
// parallel `core::Runner`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "osnt/common/random.hpp"
#include "osnt/common/stats.hpp"

namespace osnt::core {

/// One trial descriptor. A plan is a list of these; trials are seed-isolated
/// (each builds its own sim::Engine testbed) so any subset may run
/// concurrently. `index` is the position in the plan and the key results are
/// ordered by, whatever thread ran the trial.
struct TrialPoint {
  std::size_t index = 0;       ///< position in the plan (set by the runner)
  std::uint64_t seed = 1;      ///< RNG seed for the trial's testbed
  double load_fraction = 1.0;  ///< offered load as a fraction of line rate
  std::size_t frame_size = 64; ///< frame size incl. FCS
  /// Retry ordinal (set by the runner): 0 on the first attempt. The seed
  /// above is already rederived for the attempt — a trial that only uses
  /// `seed` replays bit-identically when re-invoked at the same point.
  std::uint32_t attempt = 0;
};

/// Deterministic per-attempt seed rederivation (osnt::derive_seed, i.e. a
/// splitmix64 finalizer over seed ⊕ attempt·golden-ratio). Identity at
/// attempt 0, so retry-capable runs reproduce retry-free runs exactly;
/// distinct, well-mixed streams for every later attempt, independent of
/// thread or schedule.
[[nodiscard]] constexpr std::uint64_t rederive_seed(
    std::uint64_t seed, std::uint32_t attempt) noexcept {
  return attempt == 0 ? seed : derive_seed(seed, attempt);
}

/// How a trial's slot in the plan ended up (see DESIGN.md §10).
enum class TrialOutcome : std::uint8_t {
  kOk = 0,    ///< first attempt succeeded
  kRetried,   ///< an attempt failed; a later rederived-seed attempt passed
  kTimedOut,  ///< last attempt killed by a watchdog (sim::WatchdogError)
  kFailed,    ///< last attempt threw something else
};

[[nodiscard]] constexpr const char* trial_outcome_name(
    TrialOutcome o) noexcept {
  constexpr const char* kNames[] = {"ok", "retried", "timed_out", "failed"};
  return kNames[static_cast<std::size_t>(o)];
}

/// Outcome of offering `load_fraction` of line rate at one frame size:
/// what core::run_capture_test measures between two ports of a device.
struct TrialStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_frames = 0;       ///< frames seen by the monitor port
  std::uint64_t captured = 0;        ///< records that survived the DMA path
  std::uint64_t dma_drops = 0;
  double offered_gbps = 0.0;         ///< measured at the generator
  double delivered_gbps = 0.0;       ///< measured at the monitor
  SampleSet latency_ns;              ///< embedded-stamp one-way latency
  SampleSet jitter_ns;               ///< |latency[i] - latency[i-1]| (RFC3550-ish)

  [[nodiscard]] double loss_fraction() const noexcept {
    return tx_frames == 0
               ? 0.0
               : 1.0 - static_cast<double>(rx_frames) /
                           static_cast<double>(tx_frames);
  }
};

/// One plan slot's result under the hardened runner: stats when any
/// attempt succeeded, plus how it got there. Failed/timed-out slots carry
/// the last attempt's error so a sweep can report partial results with
/// quality flags instead of aborting.
struct TrialResult {
  TrialStats stats;  ///< valid iff ok(); value-initialized otherwise
  TrialOutcome outcome = TrialOutcome::kOk;
  std::uint32_t attempts = 0;      ///< attempts actually made
  std::uint64_t seed_used = 0;     ///< rederived seed of the last attempt
  std::string error;               ///< last attempt's what() when !ok()

  [[nodiscard]] bool ok() const noexcept {
    return outcome == TrialOutcome::kOk || outcome == TrialOutcome::kRetried;
  }
};

/// Runs one trial on a fresh testbed. Implemented by the caller (bench,
/// test, or CLI) so the DUT and topology stay out of this layer. Must be
/// safe to invoke from several threads at once when handed to a Runner
/// with jobs > 1 — which it is for free when every state it touches lives
/// inside the trial body.
using Trial = std::function<TrialStats(const TrialPoint&)>;

}  // namespace osnt::core
