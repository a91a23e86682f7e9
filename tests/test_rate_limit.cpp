// Rate-limit resilience (DESIGN.md §15): the RateLimitDetector's three
// mechanisms against synthesized sample streams (plateau + corroboration
// detection, median-below-peak verdicts on bimodal policer clouds,
// probe-epoch release), the closed-loop carrier-policer scenario where
// the adapted BbrLite must beat the detector-off baseline on both
// goodput and RTT inflation, block-targeted rate_limit / queue_cap
// faults retiming a live bucket, and the determinism contract: a
// fault-armed policer topology is byte-identical under kSimOnly
// telemetry at any --jobs value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "osnt/core/runner.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/rate_limit_detector.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt {
namespace {

using graph::TopologyFile;
using tcp::RateLimitDetector;

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "expected \"" << needle << "\" in: " << msg;
}

// ------------------------------------------------- detector unit tests

/// Synthetic ACK clock: one tick = one ACK every 50 us, with the flow's
/// cumulative `delivered` counter advancing at `goodput_bps` and the
/// instantaneous delivery-rate sample pinned at `sample_bps`. This is
/// exactly the estimator state Flow::on_ack feeds the detector, minus
/// the dataplane.
struct SyntheticAckClock {
  RateLimitDetector det;
  Picos now = 0;
  std::uint64_t delivered = 0;
  int verdict_changes = 0;

  static constexpr Picos kStep = 50 * kPicosPerMicro;

  void tick(double sample_bps, double goodput_bps, Picos rtt,
            bool loss = false) {
    now += kStep;
    delivered += static_cast<std::uint64_t>(
        goodput_bps * static_cast<double>(kStep) /
        (8.0 * static_cast<double>(kPicosPerSec)));
    if (loss) det.on_loss();
    if (det.on_ack(now, sample_bps, rtt, delivered)) ++verdict_changes;
  }

  /// `span` of sim time at a steady operating point.
  void run(Picos span, double sample_bps, double goodput_bps, Picos rtt,
           bool loss_each_window = false) {
    const Picos window = RateLimitDetector::kMinWindow;
    for (Picos t = 0; t < span; t += kStep) {
      const bool loss = loss_each_window && (t % window) < kStep;
      tick(sample_bps, goodput_bps, rtt, loss);
    }
  }
};

constexpr double kTokenRate = 2.5e9;
constexpr Picos kRttFloor = 100 * kPicosPerMicro;

TEST(RateLimit, ShaperPlateauWithInflatedRttDetects) {
  SyntheticAckClock clk;
  // One sample at the unqueued floor pins min_rtt; then the shaper's
  // standing queue doubles the RTT while goodput plateaus at the token
  // rate. Four 2 ms windows in band + inflation = a verdict.
  clk.tick(kTokenRate, kTokenRate, kRttFloor);
  clk.run(12 * kPicosPerMilli, kTokenRate, kTokenRate, 2 * kRttFloor);

  EXPECT_TRUE(clk.det.detected());
  EXPECT_EQ(clk.det.detections(), 1u);
  EXPECT_EQ(clk.det.releases(), 0u);
  // Log-histogram bins are ~1.2x wide; the verdict must land within the
  // controller's tolerance band of the true token rate.
  EXPECT_GT(clk.det.verdict_rate_bps(), 0.75 * kTokenRate);
  EXPECT_LT(clk.det.verdict_rate_bps(), 1.25 * kTokenRate);
  EXPECT_GT(clk.det.detect_time(), 0);
  EXPECT_LE(clk.det.detect_time(), 10 * kPicosPerMilli);
  EXPECT_GE(clk.verdict_changes, 1);
}

TEST(RateLimit, AppLimitedPlateauStaysQuiet) {
  SyntheticAckClock clk;
  // Flat goodput alone is what an application-limited flow looks like:
  // RTT at the floor, zero losses. Without corroboration the plateau
  // must never convert into a verdict.
  clk.run(20 * kPicosPerMilli, kTokenRate, kTokenRate, kRttFloor);

  EXPECT_FALSE(clk.det.detected());
  EXPECT_EQ(clk.det.detections(), 0u);
  EXPECT_DOUBLE_EQ(clk.det.detected_rate_bps(), 0.0);
}

TEST(RateLimit, PolicerLossesCorroborateWithoutRttInflation) {
  SyntheticAckClock clk;
  // Drop-mode policer signature: RTT stays at the floor (excess is
  // discarded, not queued) and losses land inside the plateau.
  clk.run(12 * kPicosPerMilli, kTokenRate, kTokenRate, kRttFloor,
          /*loss_each_window=*/true);

  EXPECT_TRUE(clk.det.detected());
  EXPECT_GT(clk.det.verdict_rate_bps(), 0.75 * kTokenRate);
  EXPECT_LT(clk.det.verdict_rate_bps(), 1.25 * kTokenRate);
}

TEST(RateLimit, BimodalPolicerCloudResolvesToTokenRate) {
  SyntheticAckClock clk;
  clk.tick(kTokenRate, kTokenRate, kRttFloor);
  // Against a drop-mode policer the clean samples split: the ACK clock
  // through the draining bucket sits at the token rate, but post-stall
  // bursts through the refilled reserve ACK at the line rate (5 Gb/s),
  // and go-back-N recovery drags the achieved goodput far below both.
  // The median-below-peak verdict must recover the token rate — not the
  // line-rate pileup, and not the recovery-depressed goodput.
  const double line_rate = 5.0e9;
  const Picos window = 2 * kPicosPerMilli;
  int i = 0;
  for (Picos t = 0; t < 12 * kPicosPerMilli; t += SyntheticAckClock::kStep) {
    const double sample = (i++ % 10 < 7) ? kTokenRate : line_rate;
    clk.tick(sample, /*goodput=*/1.2e9, kRttFloor,
             /*loss=*/(t % window) < SyntheticAckClock::kStep);
  }

  ASSERT_TRUE(clk.det.detected());
  EXPECT_GT(clk.det.verdict_rate_bps(), 0.75 * kTokenRate);
  EXPECT_LT(clk.det.verdict_rate_bps(), 1.25 * kTokenRate)
      << "verdict picked the line-rate burst pileup";
}

TEST(RateLimit, DownwardRetimeReFires) {
  SyntheticAckClock clk;
  clk.tick(kTokenRate, kTokenRate, kRttFloor);
  clk.run(10 * kPicosPerMilli, kTokenRate, kTokenRate, 2 * kRttFloor);
  ASSERT_TRUE(clk.det.detected());
  const double first = clk.det.verdict_rate_bps();

  // Carrier squeezes the bucket to 1 Gb/s mid-flow. The first
  // out-of-band window restarts the plateau; four windows later the
  // detector must re-fire with the materially lower verdict.
  clk.run(14 * kPicosPerMilli, 1.0e9, 1.0e9, 2 * kRttFloor);
  EXPECT_EQ(clk.det.detections(), 2u);
  EXPECT_LT(clk.det.verdict_rate_bps(), 0.75 * first);
  EXPECT_GT(clk.det.verdict_rate_bps(), 0.75e9);
  EXPECT_LT(clk.det.verdict_rate_bps(), 1.25e9);
}

TEST(RateLimit, StandingVerdictDoesNotReFireInBand) {
  SyntheticAckClock clk;
  clk.tick(kTokenRate, kTokenRate, kRttFloor);
  // Long steady plateau: exactly one detection, no churn — re-arming on
  // every window would thrash the controller's model.
  clk.run(24 * kPicosPerMilli, kTokenRate, kTokenRate, 2 * kRttFloor);
  EXPECT_EQ(clk.det.detections(), 1u);
}

/// Drive a detected clock up to the start of its first probe epoch.
void run_until_probing(SyntheticAckClock& clk) {
  clk.tick(kTokenRate, kTokenRate, kRttFloor);
  for (int i = 0; i < 4000 && !clk.det.probing(); ++i) {
    clk.tick(kTokenRate, kTokenRate, 2 * kRttFloor);
  }
  ASSERT_TRUE(clk.det.probing()) << "no probe epoch within 200 ms";
  ASSERT_TRUE(clk.det.detected());
}

TEST(RateLimit, ProbeEpochExportsRaisedRate) {
  SyntheticAckClock clk;
  run_until_probing(clk);
  // During the epoch the exported rate is kProbeGain x the verdict; the
  // standing verdict itself is untouched.
  EXPECT_DOUBLE_EQ(clk.det.detected_rate_bps(),
                   RateLimitDetector::kProbeGain * clk.det.verdict_rate_bps());
}

TEST(RateLimit, ProbeEpochReleasesWhenLimiterIsLifted) {
  SyntheticAckClock clk;
  run_until_probing(clk);
  // The limiter is gone: the flow follows the raised export and the
  // epoch window's goodput doubles. Closing the epoch must release the
  // verdict and restart learning.
  for (int i = 0; i < 200 && clk.det.probing(); ++i) {
    clk.tick(2 * kTokenRate, 2 * kTokenRate, kRttFloor);
  }
  EXPECT_FALSE(clk.det.probing());
  EXPECT_FALSE(clk.det.detected());
  EXPECT_EQ(clk.det.releases(), 1u);
  EXPECT_DOUBLE_EQ(clk.det.detected_rate_bps(), 0.0);
}

TEST(RateLimit, ProbeEpochReclampsWhenLimiterHolds) {
  SyntheticAckClock clk;
  run_until_probing(clk);
  const double verdict = clk.det.verdict_rate_bps();
  // The limiter stands: epoch goodput stays pinned at the token rate
  // (the bucket's reserve cannot fake a whole window). The epoch must
  // close back onto the same verdict with zero releases.
  for (int i = 0; i < 200 && clk.det.probing(); ++i) {
    clk.tick(kTokenRate, kTokenRate, 2 * kRttFloor);
  }
  EXPECT_FALSE(clk.det.probing());
  EXPECT_TRUE(clk.det.detected());
  EXPECT_EQ(clk.det.releases(), 0u);
  EXPECT_DOUBLE_EQ(clk.det.detected_rate_bps(), verdict);
}

// --------------------------------------------- closed-loop scenarios

// The carrier-policer scenario (examples/topologies/carrier_policer.json
// at test length): a 2.5 Gb/s drop-mode bucket halfway down a 5 Gb/s
// path. Without detection BbrLite's bandwidth model is poisoned by
// recovery-aliased line-rate samples and goodput collapses well below
// the token rate under RTO storms.
constexpr const char* kCarrierPolicer = R"({
  "name": "carrier_policer_test",
  "seed": 3,
  "duration_ms": 40,
  "blocks": [
    {"name": "access", "type": "delay_ber", "delay_us": 20},
    {"name": "policer", "type": "token_bucket",
     "rate_gbps": 2.5, "burst_bytes": 30000, "shape": false},
    {"name": "egress_q", "type": "fifo_queue",
     "rate_gbps": 10.0, "queue_frames": 256},
    {"name": "tap", "type": "monitor", "rtt_probe": true},
    {"name": "ackpath", "type": "delay_ber", "delay_us": 20}
  ],
  "edges": [
    {"from": "access:0", "to": "policer:0"},
    {"from": "policer:0", "to": "egress_q:0"},
    {"from": "egress_q:0", "to": "tap:0"}
  ],
  "workload": {
    "kind": "tcp", "flows": 1, "cc": "bbr", "mss": 1448,
    "bottleneck_gbps": 5.0, "queue_segments": 256,
    "rate_limit_detector": true,
    "ingress": "access:0", "egress": "tap:0",
    "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"
  }
})";

std::string with_detector_off(std::string topo) {
  const std::string on = "\"rate_limit_detector\": true";
  const auto pos = topo.find(on);
  EXPECT_NE(pos, std::string::npos);
  topo.replace(pos, on.size(), "\"rate_limit_detector\": false");
  return topo;
}

std::string with_shaper(std::string topo) {
  const std::string drop = "\"shape\": false";
  const auto pos = topo.find(drop);
  EXPECT_NE(pos, std::string::npos);
  topo.replace(pos, drop.size(), "\"shape\": true");
  return topo;
}

TEST(RateLimit, ClosedLoopAdaptationBeatsBaselineThroughPolicer) {
  const TopologyFile on = TopologyFile::from_json(kCarrierPolicer);
  const TopologyFile off =
      TopologyFile::from_json(with_detector_off(kCarrierPolicer));
  const auto r_on = graph::run_topology_trial(on, on.seed);
  const auto r_off = graph::run_topology_trial(off, off.seed);

  // Detector off: no detections, model poisoning collapses goodput.
  EXPECT_EQ(r_off.tcp.rld_detections, 0u);
  ASSERT_GT(r_off.tcp.goodput_bps, 0.0);

  // Detector on: a verdict at the token rate, with a detection latency.
  EXPECT_GE(r_on.tcp.rld_detections, 1u);
  EXPECT_GT(r_on.tcp.rld_rate_bps, 0.75 * kTokenRate);
  EXPECT_LT(r_on.tcp.rld_rate_bps, 1.25 * kTokenRate);
  EXPECT_GT(r_on.tcp.rld_detect_time, 0);

  // The acceptance bar (BENCH_tcp rate_limit_resilience gate): at least
  // 1.5x the baseline's goodput at no more than 0.5x its p99 RTT
  // inflation over the observed floor.
  EXPECT_GE(r_on.tcp.goodput_bps, 1.5 * r_off.tcp.goodput_bps);
  ASSERT_GT(r_on.tcp.rtt_min_ns, 0.0);
  ASSERT_GT(r_off.tcp.rtt_min_ns, 0.0);
  const double infl_on = r_on.tcp.rtt_p99_ns / r_on.tcp.rtt_min_ns;
  const double infl_off = r_off.tcp.rtt_p99_ns / r_off.tcp.rtt_min_ns;
  EXPECT_LE(infl_on, 0.5 * infl_off);
}

TEST(RateLimit, ShaperModeInflatesInPlaneRtt) {
  // shape=true turns the same bucket into a delay box: the excess
  // queues behind the token deficit instead of dropping. The monitor
  // tap's in-plane histogram must show the standing queue, which the
  // drop-mode run never builds.
  const TopologyFile shaped =
      TopologyFile::from_json(with_shaper(with_detector_off(kCarrierPolicer)));
  const TopologyFile dropped =
      TopologyFile::from_json(with_detector_off(kCarrierPolicer));
  const auto r_shaped = graph::run_topology_trial(shaped, shaped.seed);
  const auto r_dropped = graph::run_topology_trial(dropped, dropped.seed);

  const graph::BlockCounters* tap_s = nullptr;
  const graph::BlockCounters* tap_d = nullptr;
  for (const auto& b : r_shaped.blocks) {
    if (b.name == "tap") tap_s = &b;
  }
  for (const auto& b : r_dropped.blocks) {
    if (b.name == "tap") tap_d = &b;
  }
  ASSERT_NE(tap_s, nullptr);
  ASSERT_NE(tap_d, nullptr);
  ASSERT_GT(tap_s->rtt_samples, 0u);
  ASSERT_GT(tap_d->rtt_samples, 0u);
  // Drop mode never queues at the bucket — every frame that survives
  // the policer crossed an empty path, so the in-plane histogram is
  // flat at the propagation floor.
  EXPECT_LT(tap_d->rtt_p99_ns, 1.05 * tap_d->rtt_p50_ns);
  // Shape mode puts the backlog *in* the histogram: the tail rides the
  // shaper queue's excursions far above both its own median and drop
  // mode's floor. Queueing delay, not loss, is the shaper's
  // backpressure.
  EXPECT_GT(tap_s->rtt_p50_ns, tap_d->rtt_p50_ns);
  EXPECT_GT(tap_s->rtt_p99_ns, 2.0 * tap_s->rtt_p50_ns);
  EXPECT_GT(tap_s->rtt_p99_ns, 5.0 * tap_d->rtt_p99_ns);
  // And the flow's own probe sees the same inflation signature the
  // detector keys on.
  ASSERT_GT(r_shaped.tcp.rtt_min_ns, 0.0);
  EXPECT_GT(r_shaped.tcp.rtt_p99_ns, 1.5 * r_shaped.tcp.rtt_min_ns);
  // A shaper never beats its token rate: goodput pins at (or under) it.
  EXPECT_LT(r_shaped.tcp.goodput_bps, 1.1 * kTokenRate);
  EXPECT_GT(r_shaped.tcp.goodput_bps, 0.5 * kTokenRate);
}

TEST(RateLimit, ShaperPlateauIsDetectedInClosedLoop) {
  // The shaper is the detector's easy case: clean unimodal samples at
  // the token rate plus RTT corroboration.
  const TopologyFile shaped =
      TopologyFile::from_json(with_shaper(kCarrierPolicer));
  const auto r = graph::run_topology_trial(shaped, shaped.seed);
  EXPECT_GE(r.tcp.rld_detections, 1u);
  EXPECT_GT(r.tcp.rld_rate_bps, 0.75 * kTokenRate);
  EXPECT_LT(r.tcp.rld_rate_bps, 1.25 * kTokenRate);
}

// ------------------------------------------- block-targeted faults

TEST(RateLimitFault, UnknownTargetIsHardErrorWithSuggestion) {
  sim::Engine eng;
  graph::Graph g(eng);
  g.emplace<graph::TokenBucketBlock>(eng, "policer",
                                     graph::TokenBucketConfig{});
  fault::FaultPlan plan;
  plan.rate_limit(kPicosPerMilli, kPicosPerMilli, "policr", 1.0);
  try {
    fault::Injector inj(eng, plan, fault::Targets{.graph = &g});
    FAIL() << "the injector accepted a rate_limit aimed at a missing block";
  } catch (const fault::PlanError& e) {
    expect_contains(e.what(), "unknown block 'policr'");
    expect_contains(e.what(), "did you mean 'policer'?");
  }
}

TEST(RateLimitFault, MidRunRetimeFollowsScheduleAndRestores) {
  sim::Engine eng;
  graph::Graph g(eng);
  graph::TokenBucketConfig cfg;
  cfg.rate_gbps = 2.5;
  cfg.burst_bytes = 30000;
  auto& tb = g.emplace<graph::TokenBucketBlock>(eng, "policer", cfg);

  fault::FaultPlan plan;
  plan.rate_limit(kPicosPerMilli, 2 * kPicosPerMilli, "policer",
                  /*rate_gbps=*/1.0, /*ramp=*/0, /*burst_bytes=*/5000);
  fault::Injector inj(eng, plan, fault::Targets{.graph = &g});

  double mid_rate = 0.0, end_rate = 0.0;
  std::size_t mid_burst = 0, end_burst = 0;
  eng.schedule_at(2 * kPicosPerMilli, [&] {
    mid_rate = tb.rate_gbps();
    mid_burst = tb.burst_bytes();
  });
  eng.schedule_at(4 * kPicosPerMilli, [&] {
    end_rate = tb.rate_gbps();
    end_burst = tb.burst_bytes();
  });
  eng.run();

  EXPECT_DOUBLE_EQ(mid_rate, 1.0);
  EXPECT_EQ(mid_burst, 5000u);
  // After `duration` the pre-fault contract is reinstated.
  EXPECT_DOUBLE_EQ(end_rate, 2.5);
  EXPECT_EQ(end_burst, 30000u);
}

TEST(RateLimitFault, RampedRetimeStepsThroughIntermediateRates) {
  sim::Engine eng;
  graph::Graph g(eng);
  graph::TokenBucketConfig cfg;
  cfg.rate_gbps = 2.0;
  auto& tb = g.emplace<graph::TokenBucketBlock>(eng, "policer", cfg);

  fault::FaultPlan plan;
  plan.rate_limit(kPicosPerMilli, 4 * kPicosPerMilli, "policer",
                  /*rate_gbps=*/1.0, /*ramp=*/2 * kPicosPerMilli);
  fault::Injector inj(eng, plan, fault::Targets{.graph = &g});

  double mid_ramp = 0.0, plateau = 0.0;
  // Halfway through the ramp the rate must sit strictly between the
  // contract and the fault plateau (stepped, not a cliff).
  eng.schedule_at(2 * kPicosPerMilli - 1, [&] { mid_ramp = tb.rate_gbps(); });
  eng.schedule_at(4 * kPicosPerMilli, [&] { plateau = tb.rate_gbps(); });
  eng.run();

  EXPECT_LT(mid_ramp, 2.0);
  EXPECT_GT(mid_ramp, 1.0);
  EXPECT_DOUBLE_EQ(plateau, 1.0);
  EXPECT_DOUBLE_EQ(tb.rate_gbps(), 2.0);  // restored after duration
}

TEST(RateLimitFault, QueueCapRetimesFifoAndBucketBacklogs) {
  sim::Engine eng;
  graph::Graph g(eng);
  auto& q = g.emplace<graph::FifoQueueBlock>(eng, "egress_q",
                                             graph::FifoQueueConfig{});
  auto& red = g.emplace<graph::RedBlock>(eng, "aqm", graph::RedConfig{});
  auto& tb = g.emplace<graph::TokenBucketBlock>(eng, "policer",
                                                graph::TokenBucketConfig{});
  const std::size_t orig = q.queue_frames();
  const std::size_t red_orig = red.queue_frames();
  const std::size_t tb_orig = tb.queue_frames();

  fault::FaultPlan plan;
  plan.queue_cap(kPicosPerMilli, 2 * kPicosPerMilli, "egress_q",
                 /*queue_frames=*/8)
      .queue_cap(kPicosPerMilli, 2 * kPicosPerMilli, "aqm",
                 /*queue_frames=*/8)
      .queue_cap(kPicosPerMilli, 2 * kPicosPerMilli, "policer",
                 /*queue_frames=*/4);
  fault::Injector inj(eng, plan, fault::Targets{.graph = &g});

  std::size_t mid = 0, red_mid = 0, tb_mid = 0;
  eng.schedule_at(2 * kPicosPerMilli, [&] {
    mid = q.queue_frames();
    red_mid = red.queue_frames();
    tb_mid = tb.queue_frames();
  });
  eng.run();

  EXPECT_EQ(mid, 8u);
  EXPECT_EQ(red_mid, 8u);
  EXPECT_EQ(tb_mid, 4u);
  EXPECT_EQ(q.queue_frames(), orig);
  EXPECT_EQ(red.queue_frames(), red_orig);
  EXPECT_EQ(tb.queue_frames(), tb_orig);
  EXPECT_EQ(inj.injected(fault::FaultKind::kQueueCap), 3u);
}

TEST(RateLimitFault, AFailedTargetSchedulesNothing) {
  // The first event is valid; the second names no block. The refusal
  // must not leave the first event's closures, which point at the
  // injector that was never made, on the engine.
  sim::Engine eng;
  graph::Graph g(eng);
  g.emplace<graph::TokenBucketBlock>(eng, "policer",
                                     graph::TokenBucketConfig{});
  fault::FaultPlan plan;
  plan.rate_limit(kPicosPerMilli, kPicosPerMilli, "policer", 1.0)
      .queue_cap(2 * kPicosPerMilli, kPicosPerMilli, "missing", 4);
  EXPECT_THROW(fault::Injector(eng, plan, fault::Targets{.graph = &g}),
               fault::PlanError);
  EXPECT_TRUE(eng.empty());
}

TEST(RateLimitFault, ValidateFaultTargetsChecksNamesAndTypes) {
  const TopologyFile topo = TopologyFile::from_json(kCarrierPolicer);

  // A well-aimed plan passes without building anything.
  fault::FaultPlan good;
  good.rate_limit(kPicosPerMilli, kPicosPerMilli, "policer", 1.0);
  good.queue_cap(kPicosPerMilli, kPicosPerMilli, "egress_q", 16);
  EXPECT_NO_THROW(graph::validate_fault_targets(topo, good));

  // Unknown name: did-you-mean against the eligible blocks.
  fault::FaultPlan typo;
  typo.rate_limit(kPicosPerMilli, kPicosPerMilli, "policr", 1.0);
  try {
    graph::validate_fault_targets(topo, typo);
    FAIL() << "typoed target validated";
  } catch (const graph::TopologyError& e) {
    expect_contains(e.what(), "unknown block 'policr'");
    expect_contains(e.what(), "did you mean 'policer'?");
  }

  // Right name, wrong block type: the likelier authoring mistake gets a
  // plain answer.
  fault::FaultPlan wrong_type;
  wrong_type.rate_limit(kPicosPerMilli, kPicosPerMilli, "tap", 1.0);
  try {
    graph::validate_fault_targets(topo, wrong_type);
    FAIL() << "rate_limit on a monitor validated";
  } catch (const graph::TopologyError& e) {
    expect_contains(e.what(), "is not a token_bucket");
  }
}

TEST(RateLimitFault, SqueezePerturbsTheClosedLoop) {
  // A mid-run squeeze to half the token rate must cost goodput relative
  // to the unfaulted run — proof the retime reaches the live dataplane.
  const TopologyFile topo =
      TopologyFile::from_json(with_detector_off(kCarrierPolicer));
  fault::FaultPlan squeeze;
  squeeze.rate_limit(10 * kPicosPerMilli, 20 * kPicosPerMilli, "policer",
                     /*rate_gbps=*/0.5, /*ramp=*/2 * kPicosPerMilli,
                     /*burst_bytes=*/10000);
  const auto base = graph::run_topology_trial(topo, topo.seed);
  const auto hit = graph::run_topology_trial(topo, topo.seed, /*duration=*/0,
                                             {.plan = &squeeze});
  ASSERT_GT(base.tcp.bytes_acked, 0u);
  EXPECT_LT(hit.tcp.bytes_acked, base.tcp.bytes_acked);
}

// ------------------------------------- determinism with faults armed

struct PolicerOutcome {
  std::vector<graph::TopologyTrialReport> reports;
  std::string sim_metrics_json;
};

/// Three fault-armed carrier-policer trials under the multiprocess
/// Runner, mirroring the dumbbell determinism idiom in test_topology.
PolicerOutcome run_policer_trials(std::size_t jobs) {
  telemetry::registry().reset();
  std::string short_topo = kCarrierPolicer;
  const std::string dur = "\"duration_ms\": 40";
  short_topo.replace(short_topo.find(dur), dur.size(), "\"duration_ms\": 15");
  const TopologyFile topo = TopologyFile::from_json(short_topo);
  fault::FaultPlan plan;
  plan.rate_limit(4 * kPicosPerMilli, 6 * kPicosPerMilli, "policer", 1.25,
                  /*ramp=*/kPicosPerMilli, /*burst_bytes=*/15000);
  plan.queue_cap(5 * kPicosPerMilli, 4 * kPicosPerMilli, "egress_q", 32);

  PolicerOutcome out;
  out.reports.resize(3);
  core::TrialPlan tp;
  for (std::size_t i = 0; i < out.reports.size(); ++i) {
    core::TrialPoint pt;
    pt.seed = topo.seed + i;
    tp.points.push_back(pt);
  }
  tp.run = [&](const core::TrialPoint& pt) {
    // Slots are disjoint across workers.
    out.reports[pt.index] = graph::run_topology_trial(
        topo, pt.seed, /*duration=*/0, {.plan = &plan});
    return core::TrialStats{};  // the report carries the results
  };
  core::RunnerConfig rcfg;
  rcfg.jobs = jobs;
  for (const auto& r : core::Runner{rcfg}.run_resilient(tp))
    EXPECT_TRUE(r.ok()) << r.error;
  out.sim_metrics_json =
      telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
  return out;
}

TEST(RateLimitFault, FaultArmedTrialsAreByteIdenticalAcrossJobs) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);

  const PolicerOutcome serial = run_policer_trials(1);
  const PolicerOutcome parallel = run_policer_trials(4);

  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].tcp.bytes_acked,
              parallel.reports[i].tcp.bytes_acked)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].tcp.rld_detections,
              parallel.reports[i].tcp.rld_detections)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].graph_drops, parallel.reports[i].graph_drops)
        << "trial " << i;
  }
  EXPECT_GT(serial.reports[0].tcp.bytes_acked, 0u);
  EXPECT_EQ(serial.sim_metrics_json, parallel.sim_metrics_json);

  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

}  // namespace
}  // namespace osnt
