// RFC 2544 search logic, exercised against synthetic DUT behaviours.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "osnt/core/rfc2544.hpp"

namespace osnt::core {
namespace {

/// Fake DUT that forwards loss-free up to `capacity` of line rate.
Trial capacity_dut(double capacity) {
  return [capacity](const TrialPoint& p) {
    const double load = p.load_fraction;
    TrialStats s;
    s.tx_frames = 10000;
    s.rx_frames = load <= capacity + 1e-12
                      ? 10000
                      : static_cast<std::uint64_t>(10000 * capacity / load);
    s.offered_gbps = 10.0 * load;
    return s;
  };
}

TEST(Rfc2544, WireRateDutFoundInOneTrial) {
  const auto pt = find_throughput(capacity_dut(1.0), 64);
  EXPECT_DOUBLE_EQ(pt.max_load_fraction, 1.0);
  EXPECT_EQ(pt.trials, 1u);
  EXPECT_NEAR(pt.gbps, 10.0, 1e-6);
  EXPECT_NEAR(pt.mpps, 14.88, 0.01);
}

TEST(Rfc2544, BinarySearchConvergesToCapacity) {
  ThroughputSearchConfig cfg;
  cfg.resolution = 0.002;
  const auto pt = find_throughput(capacity_dut(0.63), 512, cfg);
  EXPECT_NEAR(pt.max_load_fraction, 0.63, 0.002 + 1e-9);
  EXPECT_LE(pt.max_load_fraction, 0.63 + 1e-9);  // never overshoots
}

TEST(Rfc2544, DeadDutReportsZero) {
  const auto dead = [](const TrialPoint&) {
    TrialStats s;
    s.tx_frames = 1000;
    s.rx_frames = 0;
    return s;
  };
  const auto pt = find_throughput(dead, 64);
  EXPECT_EQ(pt.max_load_fraction, 0.0);
  EXPECT_EQ(pt.gbps, 0.0);
}

TEST(Rfc2544, LossToleranceRelaxesSearch) {
  // DUT always loses exactly 1%.
  const auto lossy = [](const TrialPoint& p) {
    TrialStats s;
    s.tx_frames = 10000;
    s.rx_frames = 9900;
    s.offered_gbps = 10.0 * p.load_fraction;
    return s;
  };
  ThroughputSearchConfig strict;
  EXPECT_EQ(find_throughput(lossy, 64, strict).max_load_fraction, 0.0);
  ThroughputSearchConfig relaxed;
  relaxed.loss_tolerance = 0.02;
  EXPECT_DOUBLE_EQ(find_throughput(lossy, 64, relaxed).max_load_fraction, 1.0);
}

TEST(Rfc2544, SweepCoversAllSizes) {
  const auto sizes = rfc2544_frame_sizes();
  const auto pts = throughput_sweep(capacity_dut(1.0), sizes);
  ASSERT_EQ(pts.size(), sizes.size());
  EXPECT_EQ(pts.front().frame_size, 64u);
  EXPECT_EQ(pts.back().frame_size, 1518u);
  // Mpps decreases with frame size; Gb/s constant at wire rate.
  EXPECT_GT(pts.front().mpps, pts.back().mpps);
  EXPECT_NEAR(pts.front().gbps, pts.back().gbps, 1e-6);
}

TEST(Rfc2544, LossRateSweepMonotoneForQueueDut) {
  // A DUT with 80% capacity: loss grows with offered load above that.
  const auto ladder = loss_rate_sweep(capacity_dut(0.8), 256, 1.0, 0.2);
  ASSERT_EQ(ladder.size(), 5u);
  EXPECT_NEAR(ladder[0].load_fraction, 1.0, 1e-9);
  EXPECT_NEAR(ladder[0].loss_fraction, 0.2, 0.01);
  EXPECT_NEAR(ladder[1].loss_fraction, 0.0, 0.01);  // 0.8 load: no loss
}

TEST(Rfc2544, TrialCountBounded) {
  ThroughputSearchConfig cfg;
  cfg.resolution = 0.001;
  const auto pt = find_throughput(capacity_dut(0.5), 64, cfg);
  // log2((1.0-0.02)/0.001) ≈ 10 trials, plus the ceiling probe.
  EXPECT_LE(pt.trials, 12u);
}

TEST(Rfc2544, SearchEndsWhenTheMidpointStopsMoving) {
  // A resolution finer than the spacing of doubles near the capacity:
  // the bisection runs until lo and hi are adjacent doubles, then stops.
  ThroughputSearchConfig cfg;
  cfg.resolution = 1e-300;
  const auto pt = find_throughput(capacity_dut(0.63), 512, cfg);
  EXPECT_NEAR(pt.max_load_fraction, 0.63, 1e-12);
  EXPECT_LE(pt.max_load_fraction, 0.63 + 1e-12);
  // One bisection per bit of the mantissa at most, plus the ceiling.
  EXPECT_LE(pt.trials, 60u);
}

TEST(Rfc2544, ResolutionOutsideTheSearchSpanIsRefused) {
  // 0 and below never end the search; 0.98 (the 2-100% span) and above
  // end it before its first bisection, reporting 0% for a DUT that
  // passes 63%.
  std::uint32_t probes = 0;
  const Trial counted = [&probes](const TrialPoint& p) {
    ++probes;
    return capacity_dut(0.63)(p);
  };
  for (const double r : {0.0, -1.0, 0.98, 2.0, std::nan("")}) {
    ThroughputSearchConfig cfg;
    cfg.resolution = r;
    EXPECT_THROW(validate(cfg), std::invalid_argument) << r;
    EXPECT_THROW((void)find_throughput(counted, 512, cfg),
                 std::invalid_argument)
        << r;
  }
  EXPECT_EQ(probes, 0u);
  ThroughputSearchConfig cfg;
  cfg.resolution = 0.97;
  EXPECT_NO_THROW(validate(cfg));
}

}  // namespace
}  // namespace osnt::core
