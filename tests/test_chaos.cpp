// Chaos acceptance: deterministic fault injection composed with the
// hardened runner. The contract: a plan with mid-run faults completes
// with partial results; retries replay bit-identically from rederived
// seeds; watchdogs kill livelocked trials without taking siblings down;
// and sim-only telemetry is byte-identical for any --jobs value.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::core {
namespace {

/// The standard chaos workload: back-to-back testbed, 1 Gb/s for 2 ms of
/// sim time, with a mid-run link flap, BER window, and DMA stall injected
/// from one shared plan. Returns the full capture-test result.
TrialStats faulted_capture_run(std::uint64_t seed) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));

  fault::FaultPlan plan;
  plan.seed = seed;
  plan.link_flap(500 * kPicosPerMicro, 100 * kPicosPerMicro, 0)
      .ber_window(kPicosPerMilli, 200 * kPicosPerMicro, 1e-5,
                  50 * kPicosPerMicro)
      .dma_stall(1500 * kPicosPerMicro, 200 * kPicosPerMicro);
  fault::Injector inj{eng, plan, fault::Targets{.device = &osnt}};

  TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(1.0);
  spec.frame_size = 256;
  spec.seed = seed;
  const auto r = run_capture_test(eng, osnt, 0, 1, spec, 2 * kPicosPerMilli);
  EXPECT_EQ(inj.injected_total(), 3u);
  EXPECT_EQ(inj.skipped(), 0u);
  return r;
}

TEST(Chaos, FaultedRunActuallyDegrades) {
  const auto r = faulted_capture_run(7);
  EXPECT_GT(r.tx_frames, 0u);
  EXPECT_LT(r.rx_frames, r.tx_frames);  // the flap + BER window cost frames
  EXPECT_GT(r.rx_frames, 0u);           // but the run completed
}

TEST(Chaos, FaultedRunIsBitIdenticalAcrossReplays) {
  const auto a = faulted_capture_run(7);
  const auto b = faulted_capture_run(7);
  EXPECT_EQ(a.tx_frames, b.tx_frames);
  EXPECT_EQ(a.rx_frames, b.rx_frames);
  EXPECT_EQ(a.captured, b.captured);
  EXPECT_EQ(a.dma_drops, b.dma_drops);
  ASSERT_EQ(a.latency_ns.count(), b.latency_ns.count());
  for (std::size_t i = 0; i < a.latency_ns.count(); ++i)
    EXPECT_EQ(a.latency_ns.samples()[i], b.latency_ns.samples()[i]);
  // A different seed is a genuinely different run: the BER stream picks
  // different victims, so the latency sample sequence diverges even when
  // aggregate counts coincide.
  const auto c = faulted_capture_run(8);
  bool identical = a.latency_ns.count() == c.latency_ns.count();
  if (identical) {
    for (std::size_t i = 0; i < a.latency_ns.count(); ++i) {
      if (a.latency_ns.samples()[i] != c.latency_ns.samples()[i]) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(Chaos, EachFaultSchedulesItsStartStepsAndOneRestore) {
  // Every scheduled event counts into sim.engine.events_fired, so the
  // schedule is part of the replay contract: a start (or 8 ramp steps)
  // per fault plus one restore, none for a DMA stall, nothing for an
  // event whose target was not given.
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  fault::FaultPlan plan;
  plan.link_flap(100 * kPicosPerMicro, 50 * kPicosPerMicro)
      .ber_window(200 * kPicosPerMicro, 100 * kPicosPerMicro, 1e-5,
                  40 * kPicosPerMicro)
      .latency_spike(300 * kPicosPerMicro, 50 * kPicosPerMicro, 5000)
      .dma_stall(400 * kPicosPerMicro, 50 * kPicosPerMicro)
      .gps_loss(500 * kPicosPerMicro, 50 * kPicosPerMicro)
      .ctrl_disconnect(600 * kPicosPerMicro, 50 * kPicosPerMicro);
  const std::size_t before = eng.pending();
  const fault::Injector inj{eng, plan, fault::Targets{.device = &osnt}};
  EXPECT_EQ(eng.pending() - before, 2u + 9u + 2u + 1u + 2u);
  EXPECT_EQ(inj.skipped(), 1u);  // ctrl_disconnect: no channel given
}

/// A faulted trial whose first attempt at slot 1 fails: the injected
/// outage plus a strict loss gate models "the fault broke this attempt".
/// The retry reruns the same slot at the rederived seed.
TrialPlan flaky_faulted_plan(std::size_t n) {
  TrialPlan plan;
  plan.points.resize(n);
  for (std::size_t i = 0; i < n; ++i) plan.points[i].seed = 40 + i;
  plan.run = [](const TrialPoint& pt) {
    TrialStats s = faulted_capture_run(pt.seed);
    if (pt.index == 1 && pt.attempt == 0)
      throw std::runtime_error("loss gate tripped under injected faults");
    return s;
  };
  return plan;
}

TEST(Chaos, RetriedSlotReplaysBitIdenticallyFromRederivedSeed) {
  RunnerConfig cfg;
  cfg.max_attempts = 3;
  const auto results = Runner{cfg}.run_resilient(flaky_faulted_plan(4));
  ASSERT_EQ(results.size(), 4u);

  EXPECT_EQ(results[0].outcome, TrialOutcome::kOk);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(results[2].outcome, TrialOutcome::kOk);
  EXPECT_EQ(results[3].outcome, TrialOutcome::kOk);

  const auto& retried = results[1];
  EXPECT_EQ(retried.outcome, TrialOutcome::kRetried);
  EXPECT_TRUE(retried.ok());
  EXPECT_EQ(retried.attempts, 2u);
  EXPECT_EQ(retried.seed_used, rederive_seed(41, 1));

  // The salvaged attempt is a plain deterministic run at the rederived
  // seed: rerunning that exact faulted testbed reproduces it bit for bit.
  const auto replay = faulted_capture_run(rederive_seed(41, 1));
  EXPECT_EQ(retried.stats.tx_frames, replay.tx_frames);
  EXPECT_EQ(retried.stats.rx_frames, replay.rx_frames);
  ASSERT_EQ(retried.stats.latency_ns.count(), replay.latency_ns.count());
  for (std::size_t i = 0; i < replay.latency_ns.count(); ++i)
    EXPECT_EQ(retried.stats.latency_ns.samples()[i],
              replay.latency_ns.samples()[i]);
}

TEST(Chaos, PlanCompletesWithPartialResultsWhenASlotIsHopeless) {
  TrialPlan plan;
  plan.points.resize(3);
  for (std::size_t i = 0; i < 3; ++i) plan.points[i].seed = 90 + i;
  plan.run = [](const TrialPoint& pt) -> TrialStats {
    if (pt.index == 1) throw std::runtime_error("hopeless slot");
    TrialStats s;
    s.tx_frames = 100 + pt.seed;
    s.rx_frames = 100 + pt.seed;
    return s;
  };
  RunnerConfig cfg;
  cfg.max_attempts = 2;
  const auto results = Runner{cfg}.run_resilient(plan);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].outcome, TrialOutcome::kOk);
  EXPECT_EQ(results[2].outcome, TrialOutcome::kOk);  // siblings unaffected
  EXPECT_EQ(results[1].outcome, TrialOutcome::kFailed);
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].attempts, 2u);  // both attempts consumed
  EXPECT_EQ(results[1].error, "hopeless slot");
  EXPECT_EQ(results[1].stats.tx_frames, 0u);  // value-initialized stats
}

TEST(Chaos, LivelockedTrialTimesOutWithoutAbortingSiblings) {
  TrialPlan plan;
  plan.points.resize(4);
  for (std::size_t i = 0; i < 4; ++i) plan.points[i].seed = 60 + i;
  plan.run = [](const TrialPoint& pt) -> TrialStats {
    if (pt.index == 2) {
      // A livelock: sim time never advances, only the event budget —
      // adopted from the runner's WatchdogScope — can stop it.
      sim::Engine eng;
      std::function<void()> self = [&] {
        eng.schedule_at(eng.now(), [&] { self(); });
      };
      eng.schedule_at(0, [&] { self(); });
      eng.run();
      ADD_FAILURE() << "livelock survived the event budget";
    }
    TrialStats s;
    s.tx_frames = pt.seed;
    s.rx_frames = pt.seed;
    return s;
  };
  RunnerConfig cfg;
  cfg.event_budget = 50'000;
  const auto results = Runner{cfg}.run_resilient(plan);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[2].outcome, TrialOutcome::kTimedOut);
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[2].error.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(results[i].outcome, TrialOutcome::kOk) << i;
    EXPECT_EQ(results[i].stats.tx_frames, 60 + i);
  }
}

TEST(Chaos, OutcomesAndSimOnlyTelemetryAreByteIdenticalAcrossJobs) {
  const auto run_with_jobs = [](std::size_t jobs) {
    telemetry::registry().reset();
    RunnerConfig cfg;
    cfg.jobs = jobs;
    cfg.max_attempts = 3;
    const auto results = Runner{cfg}.run_resilient(flaky_faulted_plan(4));
    std::string outcomes;
    for (const auto& r : results) {
      outcomes += trial_outcome_name(r.outcome);
      outcomes += ':' + std::to_string(r.attempts);
      outcomes += ':' + std::to_string(r.seed_used);
      outcomes += ':' + std::to_string(r.stats.rx_frames);
      outcomes += '\n';
    }
    return std::pair{outcomes, telemetry::registry().to_json(
                                   telemetry::Snapshot::kSimOnly)};
  };
  const auto serial = run_with_jobs(1);
  const auto sharded = run_with_jobs(4);
  EXPECT_EQ(serial.first, sharded.first);
  EXPECT_EQ(serial.second, sharded.second);
}

}  // namespace
}  // namespace osnt::core
