// core::Runner: deterministic parallel trial execution. The contract under
// test: results are byte-identical for any job count, every trial is
// attempted, and for_each rethrows the first exception in index order.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "osnt/common/log.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/rfc2544.hpp"
#include "osnt/core/runner.hpp"

namespace osnt::core {
namespace {

std::size_t hw_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

/// Fake DUT forwarding loss-free up to `capacity` of line rate, in the
/// unified vocabulary.
Trial capacity_dut(double capacity) {
  return [capacity](const TrialPoint& p) {
    TrialStats s;
    s.tx_frames = 10000;
    s.rx_frames = p.load_fraction <= capacity + 1e-12
                      ? 10000
                      : static_cast<std::uint64_t>(10000 * capacity /
                                                   p.load_fraction);
    s.offered_gbps = 10.0 * p.load_fraction;
    return s;
  };
}

/// Real-engine trial: a short capture test on a fresh simulated testbed.
TrialStats sim_trial(const TrialPoint& pt) {
  sim::Engine eng;
  OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(pt.load_fraction);
  spec.frame_size = pt.frame_size;
  spec.seed = pt.seed;
  return run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli / 5);
}

/// Points at seeds 1..n, in plan order.
TrialPlan seeds_plan(std::size_t n) {
  TrialPlan plan;
  plan.points.resize(n);
  for (std::size_t i = 0; i < n; ++i) plan.points[i].seed = i + 1;
  return plan;
}

/// Every slot of a run_resilient batch succeeded. A failed slot holds a
/// default TrialStats, so comparing two batches without this check
/// would pass on two failures.
void expect_all_ok(const std::vector<TrialResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok())
        << "trial " << i << ": " << results[i].error;
  }
}

std::string render_sweep(const std::vector<ThroughputPoint>& pts) {
  std::string out;
  char line[160];
  for (const auto& pt : pts) {
    std::snprintf(line, sizeof line, "%zu %.17g %.17g %.17g %u %.17g\n",
                  pt.frame_size, pt.max_load_fraction, pt.gbps, pt.mpps,
                  pt.trials, pt.latency_at_max_ns.quantile(0.5));
    out += line;
  }
  return out;
}

std::string render_ladder(const std::vector<LossPoint>& pts) {
  std::string out;
  char line[120];
  for (const auto& lp : pts) {
    std::snprintf(line, sizeof line, "%.17g %.17g %.17g\n", lp.load_fraction,
                  lp.loss_fraction, lp.offered_gbps);
    out += line;
  }
  return out;
}

TEST(Runner, SimEngineTrialsIdenticalForAnyJobCount) {
  // Per-trial Engines share nothing, so concurrent simulations must
  // reproduce the serial run exactly (frame counts and latency medians).
  TrialPlan plan;
  for (std::size_t i = 0; i < 6; ++i) {
    TrialPoint p;
    p.index = i;
    p.seed = i + 1;
    p.load_fraction = 0.1 + 0.1 * static_cast<double>(i);
    p.frame_size = i % 2 == 0 ? 64 : 512;
    plan.points.push_back(p);
  }
  plan.run = sim_trial;
  const auto serial = Runner{RunnerConfig{.jobs = 1}}.run_resilient(plan);
  const auto parallel = Runner{RunnerConfig{.jobs = 4}}.run_resilient(plan);
  expect_all_ok(serial);
  expect_all_ok(parallel);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const TrialStats& a = serial[i].stats;
    const TrialStats& b = parallel[i].stats;
    EXPECT_EQ(a.tx_frames, b.tx_frames) << "trial " << i;
    EXPECT_EQ(a.rx_frames, b.rx_frames) << "trial " << i;
    EXPECT_EQ(a.latency_ns.quantile(0.5), b.latency_ns.quantile(0.5))
        << "trial " << i;
  }
}

TEST(Runner, ThroughputSweepByteIdenticalForAnyJobCount) {
  const auto trial = capacity_dut(0.63);
  ThroughputSearchConfig cfg;
  cfg.resolution = 0.002;
  const auto sizes = rfc2544_frame_sizes();
  const auto s1 = render_sweep(
      throughput_sweep(trial, sizes, cfg, RunnerConfig{.jobs = 1}));
  const auto s4 = render_sweep(
      throughput_sweep(trial, sizes, cfg, RunnerConfig{.jobs = 4}));
  const auto shw = render_sweep(
      throughput_sweep(trial, sizes, cfg, RunnerConfig{.jobs = hw_jobs()}));
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, shw);
}

TEST(Runner, LossLadderByteIdenticalForAnyJobCount) {
  const auto trial = capacity_dut(0.8);
  const auto l1 =
      render_ladder(loss_rate_sweep(trial, 256, 1.0, 0.1, RunnerConfig{.jobs = 1}));
  const auto l4 =
      render_ladder(loss_rate_sweep(trial, 256, 1.0, 0.1, RunnerConfig{.jobs = 4}));
  const auto lhw = render_ladder(
      loss_rate_sweep(trial, 256, 1.0, 0.1, RunnerConfig{.jobs = hw_jobs()}));
  EXPECT_EQ(l1, l4);
  EXPECT_EQ(l1, lhw);
}

TEST(Runner, FirstExceptionInPlanOrderPropagates) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> attempted{0};
    const Runner runner{RunnerConfig{.jobs = jobs}};
    try {
      runner.for_each(8, [&attempted](std::size_t i) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (i == 2) throw std::runtime_error("boom3");
        if (i == 4) throw std::runtime_error("boom5");
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      // Index 2 precedes index 4, whichever thread hit it first.
      EXPECT_STREQ(e.what(), "boom3") << "jobs=" << jobs;
    }
    // Every index was still attempted despite the failures.
    EXPECT_EQ(attempted.load(), 8) << "jobs=" << jobs;
  }
}

TEST(Runner, EmptyPlanAndMissingFunctor) {
  TrialPlan empty;
  empty.run = [](const TrialPoint&) { return TrialStats{}; };
  EXPECT_TRUE(Runner{}.run_resilient(empty).empty());
  const TrialPlan no_fn = seeds_plan(2);
  EXPECT_THROW((void)Runner{}.run_resilient(no_fn), std::invalid_argument);
}

TEST(Runner, WorkersAreTaggedForTheLogger) {
  EXPECT_EQ(log_worker(), -1);
  std::vector<int> ids(5, -2);
  TrialPlan plan = seeds_plan(5);
  plan.run = [&ids](const TrialPoint& p) {
    ids[p.index] = log_worker();
    return TrialStats{};
  };
  expect_all_ok(Runner{RunnerConfig{.jobs = 2}}.run_resilient(plan));
  for (const int id : ids) EXPECT_GE(id, 0);
  // The tag is scoped to the pool; the calling thread is restored.
  EXPECT_EQ(log_worker(), -1);
}

TEST(Runner, ResolvedJobs) {
  EXPECT_EQ(RunnerConfig{.jobs = 3}.resolved_jobs(), 3u);
  EXPECT_GE(RunnerConfig{.jobs = 0}.resolved_jobs(), 1u);
}

TEST(Runner, PointIndexFollowsPlanOrder) {
  TrialPlan plan = seeds_plan(16);
  std::vector<std::uint64_t> seeds(16, 0);
  plan.run = [&seeds](const TrialPoint& p) {
    seeds[p.index] = p.seed;
    TrialStats s;
    s.tx_frames = p.index;
    return s;
  };
  const auto out = Runner{RunnerConfig{.jobs = 4}}.run_resilient(plan);
  expect_all_ok(out);
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].stats.tx_frames, i);
    EXPECT_EQ(seeds[i], i + 1);  // the plan's seeds, in plan order
  }
}

}  // namespace
}  // namespace osnt::core
