// In-plane measurement (DESIGN.md §14): the LatencyProbe's batch ring and
// per-class binning, and the regression this subsystem exists for — under
// a DMA stall the in-plane histograms keep the full delivered-frame
// population while the host-side capture path (HostCapture::latency_ns)
// silently loses every stalled record.
#include <gtest/gtest.h>

#include <string>

#include "osnt/common/stats.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/mon/latency_probe.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt {
namespace {

using mon::LatencyProbe;

// ------------------------------------------------------------ probe core

TEST(LatencyProbe, EmptyProbeHasNoSamples) {
  const LatencyProbe p{};
  EXPECT_EQ(p.samples(), 0u);
  EXPECT_EQ(p.merged().count(), 0u);
  for (std::size_t k = 0; k < LatencyProbe::kClasses; ++k) {
    EXPECT_EQ(p.of_class(k).count(), 0u);
  }
}

TEST(LatencyProbe, ObserveBinsByClassAndWrapsTheMask) {
  LatencyProbe p;
  p.observe(100, 0);
  p.observe(200, 1);
  p.observe(300, 2);
  p.observe(400, 3);
  // Classes beyond kClasses wrap through the mask (4 -> 0, 5 -> 1), the
  // same truncation a DSCP field wider than the class bits would get.
  p.observe(500, 4);
  p.observe(600, 5);

  EXPECT_EQ(p.samples(), 6u);
  EXPECT_EQ(p.of_class(0).count(), 2u);
  EXPECT_EQ(p.of_class(1).count(), 2u);
  EXPECT_EQ(p.of_class(2).count(), 1u);
  EXPECT_EQ(p.of_class(3).count(), 1u);
  EXPECT_EQ(p.merged().count(), 6u);
  EXPECT_EQ(p.merged().sum(), 100u + 200 + 300 + 400 + 500 + 600);
}

TEST(LatencyProbe, AccessorsDrainThePartialBatch) {
  LatencyProbe p;
  // Fewer than kBatch samples: nothing has been retired yet, but every
  // accessor must still see them (drain-on-read).
  for (std::uint64_t i = 0; i < LatencyProbe::kBatch / 2; ++i) {
    p.observe(1000 + i, 0);
  }
  EXPECT_EQ(p.samples(), LatencyProbe::kBatch / 2);

  // Crossing the ring boundary several times keeps counts exact.
  for (std::uint64_t i = 0; i < 5 * LatencyProbe::kBatch; ++i) {
    p.observe(i, static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(p.samples(), LatencyProbe::kBatch / 2 + 5 * LatencyProbe::kBatch);
}

TEST(LatencyProbe, ObserveBatchMatchesLoopedObserve) {
  std::uint64_t vals[300];
  for (std::uint64_t i = 0; i < 300; ++i) vals[i] = i * 7 + 1;

  LatencyProbe batched;
  batched.observe_batch(vals, 300, 2);
  LatencyProbe looped;
  for (const std::uint64_t v : vals) looped.observe(v, 2);

  EXPECT_EQ(batched.samples(), looped.samples());
  EXPECT_EQ(batched.of_class(2).count(), looped.of_class(2).count());
  EXPECT_EQ(batched.of_class(2).sum(), looped.of_class(2).sum());
  EXPECT_EQ(batched.of_class(2).min(), looped.of_class(2).min());
  EXPECT_EQ(batched.of_class(2).max(), looped.of_class(2).max());
}

TEST(LatencyProbe, ClampsToTheRepresentableRange) {
  LatencyProbe p;
  p.observe(~std::uint64_t{0}, 1);  // would collide with the class bits
  EXPECT_EQ(p.of_class(1).max(), LatencyProbe::kMaxNs);
  EXPECT_EQ(p.of_class(1).count(), 1u);
}

TEST(LatencyProbe, ResetForgetsEverything) {
  LatencyProbe p;
  p.observe(42, 3);
  p.reset();
  EXPECT_EQ(p.samples(), 0u);
  EXPECT_EQ(p.of_class(3).count(), 0u);
}

TEST(LatencyProbe, FlushPublishesMergedAndPerClassHistograms) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::registry().reset();

  LatencyProbe p;
  p.observe(100, 0);
  p.observe(200, 2);
  p.flush("test.");

  const std::string json = telemetry::registry().to_json();
  EXPECT_NE(json.find("test.rtt.ns"), std::string::npos);
  EXPECT_NE(json.find("test.rtt.class0.ns"), std::string::npos);
  EXPECT_NE(json.find("test.rtt.class2.ns"), std::string::npos);
  // Empty classes add no metric names.
  EXPECT_EQ(json.find("test.rtt.class1.ns"), std::string::npos);
  EXPECT_NE(json.find("test.rtt.samples"), std::string::npos);

  // An idle probe is silent: no names, no zero-count noise.
  telemetry::registry().reset();
  const LatencyProbe idle{};
  idle.flush("idle.");
  EXPECT_EQ(telemetry::registry().to_json().find("idle."), std::string::npos);

  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

// ----------------------------------------------- dma_stall regression

/// Host-vs-in-plane bias: the same latency population seen by the probe
/// (full) and by host capture (post-DMA survivors). `coverage` is the
/// fraction of in-plane samples that made it to the host — 1.0 means the
/// DMA path kept up, anything less means host-side quantiles are computed
/// over a biased subset.
struct BiasReport {
  std::uint64_t inplane_samples = 0;
  std::uint64_t host_samples = 0;
  double coverage = 1.0;
  double inplane_p50 = 0.0;
  double host_p50 = 0.0;

  [[nodiscard]] std::uint64_t lost_samples() const noexcept {
    return inplane_samples > host_samples ? inplane_samples - host_samples
                                          : 0;
  }
};

BiasReport compare_bias(const LatencyProbe& probe, const SampleSet& host) {
  BiasReport rep;
  const telemetry::Log2Histogram inplane = probe.merged();
  rep.inplane_samples = inplane.count();
  rep.host_samples = host.count();
  rep.coverage = rep.inplane_samples == 0
                     ? 1.0
                     : static_cast<double>(rep.host_samples) /
                           static_cast<double>(rep.inplane_samples);
  rep.inplane_p50 = inplane.quantile(0.5);
  rep.host_p50 = host.quantile(0.5);
  return rep;
}

/// The acceptance scenario: a mid-run DMA stall drops capture records on
/// the floor. The monitor-model probe sits ahead of the DMA stage, so its
/// histogram still covers 100% of delivered frames; the host-side
/// embedded-stamp population (TrialStats::latency_ns, computed from DMA
/// survivors) loses exactly the stalled records.
TEST(LatencyProbe, InPlaneKeepsFullPopulationUnderDmaStall) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));

  fault::FaultPlan plan;
  plan.seed = 7;
  // The stall must outlast the 1024-entry descriptor ring: at 8 Gb/s of
  // 128 B frames (~6.8 Mfps) a 500 us freeze queues ~3400 records.
  plan.dma_stall(500 * kPicosPerMicro, 500 * kPicosPerMicro);
  fault::Injector inj{eng, plan, fault::Targets{.device = &osnt}};

  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(8.0);
  spec.frame_size = 128;
  spec.seed = 7;
  const core::TrialStats r =
      core::run_capture_test(eng, osnt, 0, 1, spec, 2 * kPicosPerMilli);

  const LatencyProbe& probe = osnt.rx(1).rtt_probe();
  ASSERT_GT(r.tx_frames, 0u);
  ASSERT_GT(r.dma_drops, 0u) << "stall did not bite; scenario is vacuous";

  // In-plane: every frame the monitor saw is in the histogram.
  EXPECT_EQ(probe.samples(), r.rx_frames);
  // Host-side: only DMA survivors contribute latency samples.
  EXPECT_EQ(static_cast<std::uint64_t>(r.latency_ns.count()), r.captured);
  EXPECT_LT(static_cast<std::uint64_t>(r.latency_ns.count()),
            probe.samples());

  const BiasReport rep = compare_bias(probe, r.latency_ns);
  EXPECT_EQ(rep.lost_samples(), r.dma_drops);
  EXPECT_LT(rep.coverage, 1.0);
  EXPECT_GT(rep.coverage, 0.0);
  // Both views agree on the shape when nothing is congested beyond the
  // stall window: p50s land within one log2 bucket of each other.
  EXPECT_GT(rep.inplane_p50, 0.0);
  EXPECT_LT(rep.inplane_p50, 2.0 * rep.host_p50 + 1.0);
}

/// Without faults the two views cover the same population: coverage is
/// exactly 1.0 and the probe count equals the capture count.
TEST(LatencyProbe, HostAndInPlaneAgreeWithoutFaults) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));

  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(1.0);
  spec.frame_size = 256;
  spec.seed = 3;
  const core::TrialStats r =
      core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli);

  const LatencyProbe& probe = osnt.rx(1).rtt_probe();
  ASSERT_GT(r.rx_frames, 0u);
  EXPECT_EQ(probe.samples(), r.rx_frames);
  const BiasReport rep = compare_bias(probe, r.latency_ns);
  EXPECT_EQ(rep.lost_samples(), 0u);
  EXPECT_DOUBLE_EQ(rep.coverage, 1.0);
}

}  // namespace
}  // namespace osnt
