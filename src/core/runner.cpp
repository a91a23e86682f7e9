#include "osnt/core/runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "osnt/common/log.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/histogram.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::core {
namespace {

/// Per-worker telemetry shard: trial wall times stay thread-local during
/// the batch and merge into the registry only after the join (the plan
/// barrier). Everything here is wall-clock-derived, so it publishes under
/// "wall"-marked names that the sim-determinism snapshot excludes.
struct WorkerShard {
  std::uint64_t busy_ns = 0;
  telemetry::Log2Histogram trial_us;
};

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

std::size_t RunnerConfig::resolved_jobs() const noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

void Runner::for_each(std::size_t n,
                      const std::function<void(std::size_t)>& body) const {
  if (n == 0) return;
  const std::size_t jobs = std::min(cfg_.resolved_jobs(), n);
  const bool telem = telemetry::enabled();
  std::vector<WorkerShard> shards(jobs);
  const auto plan_t0 = std::chrono::steady_clock::now();

  // Every index is attempted; the first failure in plan order wins. This
  // keeps the serial and parallel paths observably identical.
  std::vector<std::exception_ptr> errors(n);
  const auto attempt = [&](std::size_t i, WorkerShard& shard) {
    // Watchdog limits travel ambiently: every Engine the body constructs
    // on this thread adopts them (see sim::WatchdogScope). All-zero when
    // the config has no watchdogs — a no-op scope.
    const sim::WatchdogScope wd(
        sim::WatchdogConfig{cfg_.event_budget, cfg_.wall_deadline_ms});
    const auto t0 = std::chrono::steady_clock::now();
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (telem) {
      const std::uint64_t ns = elapsed_ns(t0);
      shard.busy_ns += ns;
      shard.trial_us.record(ns / 1000);
    }
  };

  if (jobs <= 1) {
    // Inline on the calling thread; preserve any enclosing worker tag so
    // a trial that itself runs a serial sub-plan stays attributable.
    const int prev = log_worker();
    if (prev < 0) set_log_worker(0);
    for (std::size_t i = 0; i < n; ++i) attempt(i, shards[0]);
    set_log_worker(prev);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      pool.emplace_back([&, w] {
        set_log_worker(static_cast<int>(w));
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
          attempt(i, shards[w]);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  if (telem) {
    // Plan barrier: the join above made every shard visible; merge them
    // into the registry in one place. Trial/plan counts are deterministic;
    // the execution-shape metrics (worker pool, wall times, utilization)
    // describe the host, not the simulated universe, and carry the "wall"
    // marker that excludes them from determinism snapshots.
    auto& reg = telemetry::registry();
    reg.counter("core.runner.plans").inc();
    reg.counter("core.runner.trials").add(n);
    std::uint64_t busy_total = 0;
    auto& trial_hist = reg.histogram("core.runner.trial_us.wall");
    for (const WorkerShard& s : shards) {
      busy_total += s.busy_ns;
      trial_hist.merge(s.trial_us);
    }
    const std::uint64_t span = elapsed_ns(plan_t0);
    const std::uint64_t pool_ns = span * jobs;
    reg.gauge("core.runner.jobs.wall").set(static_cast<std::int64_t>(jobs));
    reg.counter("core.runner.busy_ns.wall").add(busy_total);
    reg.counter("core.runner.span_ns.wall").add(span);
    reg.counter("core.runner.queue_wait_ns.wall")
        .add(pool_ns > busy_total ? pool_ns - busy_total : 0);
    if (pool_ns > 0) {
      reg.gauge("core.runner.utilization_pct.wall")
          .set(static_cast<std::int64_t>(busy_total * 100 / pool_ns));
    }
  }

  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<TrialResult> Runner::run_resilient(const TrialPlan& plan) const {
  if (!plan.run)
    throw std::invalid_argument(
        "Runner::run_resilient: plan has no trial functor");
  const std::size_t n = plan.points.size();
  const std::uint32_t cap = cfg_.max_attempts > 0 ? cfg_.max_attempts : 1;
  std::vector<TrialResult> results(n);
  for_each(n, [&](std::size_t i) {
    TrialResult& r = results[i];
    for (std::uint32_t a = 0; a < cap; ++a) {
      TrialPoint p = plan.points[i];
      p.index = i;
      p.attempt = a;
      p.seed = rederive_seed(p.seed, a);
      r.attempts = a + 1;
      r.seed_used = p.seed;
      try {
        r.stats = plan.run(p);
        r.outcome = a == 0 ? TrialOutcome::kOk : TrialOutcome::kRetried;
        r.error.clear();
        return;
      } catch (const sim::WatchdogError& e) {
        r.outcome = TrialOutcome::kTimedOut;
        r.error = e.what();
      } catch (const std::exception& e) {
        r.outcome = TrialOutcome::kFailed;
        r.error = e.what();
      } catch (...) {
        r.outcome = TrialOutcome::kFailed;
        r.error = "unknown exception";
      }
      r.stats = TrialStats{};  // a failed attempt's partial stats are void
      OSNT_WARN("trial %zu attempt %u/%u %s: %s", i, a + 1, cap,
                trial_outcome_name(r.outcome), r.error.c_str());
    }
  });

  if (telemetry::enabled()) {
    // Outcome counts derive from sim-deterministic events (event-budget
    // kills, trial exceptions), so they publish unmarked and must match
    // for any jobs count. Wall-deadline kills are the documented
    // exception — nondeterministic by nature (DESIGN.md §10).
    std::uint64_t by_outcome[4] = {};
    std::uint64_t extra_attempts = 0;
    for (const TrialResult& r : results) {
      ++by_outcome[static_cast<std::size_t>(r.outcome)];
      extra_attempts += r.attempts > 0 ? r.attempts - 1 : 0;
    }
    auto& reg = telemetry::registry();
    for (std::size_t o = 0; o < 4; ++o) {
      reg.counter(std::string("core.runner.outcome.") +
                  trial_outcome_name(static_cast<TrialOutcome>(o)))
          .add(by_outcome[o]);
    }
    reg.counter("core.runner.retries").add(extra_attempts);
  }
  return results;
}

}  // namespace osnt::core
