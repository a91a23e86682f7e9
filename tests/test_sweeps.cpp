// Parameterized configuration sweeps: properties that must hold across
// the whole operating envelope, not just at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/tstamp/clock.hpp"
#include "switch_graph.hpp"

namespace osnt {
namespace {

// ---------------------------------------------- generator rate accuracy

class RateAccuracy
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(RateAccuracy, AchievedMatchesRequested) {
  const auto [fraction, frame_size] = GetParam();
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(fraction);
  spec.frame_size = frame_size;
  const auto r = core::run_capture_test(eng, osnt, 0, 1, spec,
                                        2 * kPicosPerMilli);
  EXPECT_NEAR(r.offered_gbps, 10.0 * fraction, 10.0 * fraction * 0.02);
  EXPECT_EQ(r.loss_fraction(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RateAccuracy,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.9, 1.0),
                       ::testing::Values(std::size_t{64}, std::size_t{512},
                                         std::size_t{1518})));

// -------------------------------------------------- clock discipline

class ClockDiscipline : public ::testing::TestWithParam<double> {};

TEST_P(ClockDiscipline, SubMicrosecondForAnyPpm) {
  const double ppm = GetParam();
  tstamp::GpsModel gps;
  tstamp::ClockConfig cfg;
  cfg.osc.ppm_offset = ppm;
  tstamp::DisciplinedClock clk{gps, cfg};
  (void)clk.now(10 * kPicosPerSec);
  double worst = 0;
  for (int i = 0; i < 40; ++i) {
    const Picos t = 10 * kPicosPerSec + i * 250 * kPicosPerMilli;
    worst = std::max(worst, std::abs(clk.error_nanos(t)));
  }
  EXPECT_LT(worst, 1000.0) << "ppm=" << ppm;
}

INSTANTIATE_TEST_SUITE_P(PpmGrid, ClockDiscipline,
                         ::testing::Values(-100.0, -20.0, -1.0, 0.0, 1.0,
                                           20.0, 100.0));

// ------------------------------------------- DMA conservation law

class DmaConservation : public ::testing::TestWithParam<double> {};

TEST_P(DmaConservation, CapturedPlusDroppedEqualsEligible) {
  const double dma_gbps = GetParam();
  sim::Engine eng;
  core::DeviceConfig dcfg;
  dcfg.dma.gbps = dma_gbps;
  dcfg.dma.ring_entries = 64;
  core::OsntDevice osnt{eng, dcfg};
  hw::connect(osnt.port(0), osnt.port(1));
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(6.0);
  spec.frame_size = 512;
  const auto r = core::run_capture_test(eng, osnt, 0, 1, spec,
                                        3 * kPicosPerMilli);
  EXPECT_EQ(r.captured + r.dma_drops, r.rx_frames);
  if (dma_gbps < 4.0) {
    EXPECT_GT(r.dma_drops, 0u);
  }
  if (dma_gbps > 8.0) {
    EXPECT_EQ(r.dma_drops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DmaGrid, DmaConservation,
                         ::testing::Values(0.5, 2.0, 8.0, 32.0));

// -------------------------------------- DUT latency measurement fidelity

class DutLatency : public ::testing::TestWithParam<double> {};

TEST_P(DutLatency, MeasuredTracksConfigured) {
  const double pipeline_us = GetParam();
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  dut::LegacySwitchConfig cfg;
  cfg.pipeline_latency = from_micros(pipeline_us);
  cfg.latency_jitter_ns = 0;
  graph::Graph g{eng};
  g.emplace<dut::LegacySwitch>(eng, "sw", cfg);
  test::plug(g, "sw", 0, osnt.port(0));
  test::plug(g, "sw", 1, osnt.port(1));
  {
    net::PacketBuilder b;
    (void)osnt.port(1).tx().transmit(
        b.eth(net::MacAddr::from_index(2), net::MacAddr::from_index(1))
            .ipv4(net::Ipv4Addr::of(10, 0, 1, 1), net::Ipv4Addr::of(10, 0, 0, 1),
                  net::ipproto::kUdp)
            .udp(5001, 1024)
            .build());
    eng.run();
  }
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(0.02);
  spec.frame_size = 512;
  const auto r = core::run_capture_test(eng, osnt, 0, 1, spec,
                                        4 * kPicosPerMilli);
  ASSERT_GT(r.latency_ns.count(), 10u);
  // Fixed terms: TX serialization of 532 line bytes (~425.6 ns) + two
  // 2 m cables (~19.6 ns).
  const double fixed = 425.6 + 2 * 9.8;
  EXPECT_NEAR(r.latency_ns.quantile(0.5), pipeline_us * 1000.0 + fixed, 15.0);
}

INSTANTIATE_TEST_SUITE_P(PipelineGrid, DutLatency,
                         ::testing::Values(0.5, 2.0, 10.0, 50.0));

// ------------------------------------------ port-count sweep for device

class DeviceSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceSizes, AllPortsIndependent) {
  const std::size_t ports = GetParam();
  sim::Engine eng;
  core::DeviceConfig cfg;
  cfg.num_ports = ports;
  core::OsntDevice dev{eng, cfg};
  EXPECT_EQ(dev.num_ports(), ports);
  for (std::size_t i = 0; i + 1 < ports; i += 2)
    hw::connect(dev.port(i), dev.port(i + 1));
  for (std::size_t i = 0; i + 1 < ports; i += 2) {
    gen::TxConfig txc;
    txc.rate = gen::RateSpec::pps(100'000);
    auto& tx = dev.configure_tx(i, txc);
    core::TrafficSpec spec;
    spec.frame_count = 50;
    spec.seed = i + 1;
    tx.set_source(core::make_source(spec));
    tx.start();
  }
  eng.run();
  for (std::size_t i = 0; i + 1 < ports; i += 2)
    EXPECT_EQ(dev.rx(i + 1).seen(), 50u) << "pair " << i;
}

INSTANTIATE_TEST_SUITE_P(PortGrid, DeviceSizes,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}, std::size_t{16}));

}  // namespace
}  // namespace osnt
