// Parallel trial runner: shard independent simulations across cores behind
// one experiment API. Trials are seed-isolated — each builds its own
// sim::Engine testbed — so a TrialPlan fans out across a worker pool with
// no shared mutable state, and results are aggregated in descriptor order
// so output is byte-identical for any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "osnt/core/trial.hpp"

namespace osnt::core {

struct RunnerConfig {
  /// Worker threads. 1 (the default) runs inline on the calling thread;
  /// 0 means std::thread::hardware_concurrency().
  std::size_t jobs = 1;

  /// Attempt cap per trial (min 1). Above 1, a failed attempt a is retried
  /// at seed rederive_seed(point.seed, a) — bounded, deterministic, and
  /// independent of which worker runs it.
  std::uint32_t max_attempts = 1;

  /// Per-attempt sim-event budget adopted by every Engine the trial
  /// constructs (0 = off). The deterministic watchdog: a livelocked trial
  /// dies on the same event number everywhere.
  std::uint64_t event_budget = 0;

  /// Per-attempt wall-clock deadline in ms (0 = off). A safety net for
  /// stalls the event budget cannot see (a blocking handler); inherently
  /// nondeterministic — see DESIGN.md §10.
  std::uint64_t wall_deadline_ms = 0;

  [[nodiscard]] std::size_t resolved_jobs() const noexcept;
};

/// A batch of independent trials plus the functor that runs one of them.
struct TrialPlan {
  std::vector<TrialPoint> points;
  Trial run;
};

/// Executes TrialPlans (and generic index ranges) across a worker pool.
///
/// Guarantees:
///  - results come back in plan order, independent of jobs;
///  - worker threads are tagged for the logger (common/log) so interleaved
///    lines from concurrent trials stay attributable.
class Runner {
 public:
  explicit Runner(RunnerConfig cfg = {}) : cfg_(cfg) {}

  /// The one way to run a plan. Never throws for trial failures: every
  /// point runs through `plan.run` (with `index` filled in) with up to
  /// `max_attempts` watchdogged attempts and per-attempt seed
  /// rederivation. Result i corresponds to `plan.points[i]` regardless
  /// of thread count, and says whether its stats are first-try (ok),
  /// salvaged (retried), or absent (timed_out / failed, with the last
  /// error attached). Outcome counts land in telemetry under
  /// `core.runner.outcome.*`. Throws std::invalid_argument when the plan
  /// has no functor.
  [[nodiscard]] std::vector<TrialResult> run_resilient(
      const TrialPlan& plan) const;

  /// Deterministic-order parallel map: invoke `body(i)` for i in [0, n)
  /// across the pool. The sweeps use this when the unit of parallelism is
  /// a whole search (one frame size's binary search), not a single trial.
  /// Every index is attempted even if an earlier one throws; the first
  /// exception in index order is rethrown after the batch completes.
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& body) const;

  [[nodiscard]] const RunnerConfig& config() const noexcept { return cfg_; }

 private:
  RunnerConfig cfg_;
};

}  // namespace osnt::core
