// Unified trial vocabulary for the experiment layer. Every measurement —
// repeat-across-seeds, RFC 2544 searches, CLI sweeps — is phrased as "run
// one trial at this TrialPoint on a fresh testbed and report TrialStats",
// so one functor type (`Trial`) feeds both the serial searches and the
// parallel `core::Runner`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>

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

/// Outcome of offering `load_fraction` of line rate at one frame size.
struct TrialStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_frames = 0;
  double offered_gbps = 0.0;
  SampleSet latency_ns;
  /// Free-form scalar for repeat-style experiments whose figure of merit
  /// is not a frame count (e.g. a latency percentile or a fitted rate).
  double metric = 0.0;

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
  std::exception_ptr exception;    ///< last attempt's exception when !ok()

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

/// Lift a scalar-valued experiment into the Trial vocabulary: the returned
/// Trial stores `fn(point)` in TrialStats::metric.
[[nodiscard]] inline Trial scalar_trial(
    std::function<double(const TrialPoint&)> fn) {
  return [fn = std::move(fn)](const TrialPoint& p) {
    TrialStats s;
    s.metric = fn(p);
    return s;
  };
}

}  // namespace osnt::core
