// End-to-end integration: OSNT tester around a legacy switch — the
// demo's Part I scenario — validating the canonical behavioural shapes.
#include <gtest/gtest.h>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/dut/openflow_switch.hpp"
#include "osnt/net/builder.hpp"
#include "switch_graph.hpp"

namespace osnt {
namespace {

struct PartOneBench {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  graph::Graph g{eng};

  explicit PartOneBench(
      dut::LegacySwitchConfig cfg = dut::LegacySwitchConfig()) {
    // OSNT port 0 → switch port 0; switch port 1 → OSNT port 1 (Figure 2).
    g.emplace<dut::LegacySwitch>(eng, "sw", cfg);
    test::plug(g, "sw", 0, osnt.port(0));
    test::plug(g, "sw", 1, osnt.port(1));
    prime_mac_learning();
  }

  /// Teach the switch where the monitor-side MAC lives so probe traffic
  /// unicasts instead of flooding.
  void prime_mac_learning() {
    net::PacketBuilder b;
    auto hello = b.eth(net::MacAddr::from_index(2), net::MacAddr::from_index(1))
                     .ipv4(net::Ipv4Addr::of(10, 0, 1, 1),
                           net::Ipv4Addr::of(10, 0, 0, 1), net::ipproto::kUdp)
                     .udp(5001, 1024)
                     .build();
    (void)osnt.port(1).tx().transmit(std::move(hello));
    eng.run();
  }
};

TEST(PartOne, LatencyThroughSwitchAtLowLoad) {
  PartOneBench b;
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(0.1);
  spec.frame_size = 256;
  const auto r = core::run_capture_test(b.eng, b.osnt, 0, 1, spec,
                                        2 * kPicosPerMilli);
  EXPECT_GT(r.tx_frames, 50u);
  EXPECT_EQ(r.loss_fraction(), 0.0);
  ASSERT_GT(r.latency_ns.count(), 0u);
  // Latency ≈ pipeline (650 ns) + frame serialization terms; sub-2 µs.
  EXPECT_GT(r.latency_ns.quantile(0.5), 650.0);
  EXPECT_LT(r.latency_ns.quantile(0.5), 2000.0);
}

TEST(PartOne, LatencyGrowsWithLoad) {
  // Two ingress ports converging on one egress port: queueing appears as
  // offered load crosses the egress capacity.
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  graph::Graph g{eng};
  g.emplace<dut::LegacySwitch>(eng, "sw");
  test::plug(g, "sw", 0, osnt.port(0));
  test::plug(g, "sw", 2, osnt.port(2));
  test::plug(g, "sw", 1, osnt.port(1));
  // Prime learning for the egress MAC.
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
  // Background load from port 2 to the same egress at 80% line rate.
  gen::TxConfig bg_cfg;
  bg_cfg.rate = gen::RateSpec::line_rate(0.8);
  auto& bg = osnt.configure_tx(2, bg_cfg);
  core::TrafficSpec bg_spec;
  bg_spec.dst_port = 6001;  // distinct from the probe stream
  bg_spec.frame_size = 1518;
  bg.set_source(core::make_source(bg_spec));
  bg.start();

  core::TrafficSpec probe;
  probe.rate = gen::RateSpec::line_rate(0.5);
  probe.frame_size = 256;
  const auto r =
      core::run_capture_test(eng, osnt, 0, 1, probe, 2 * kPicosPerMilli);
  bg.stop();
  ASSERT_GT(r.latency_ns.count(), 0u);
  // 0.8 + 0.5 > 1.0 of egress: median latency must sit well above the
  // unloaded ~1 µs, and drops appear.
  EXPECT_GT(r.latency_ns.quantile(0.5), 5'000.0);
  EXPECT_GT(r.loss_fraction(), 0.0);
}

TEST(PartOne, ThroughputIsWireRateForFastSwitch) {
  PartOneBench b;
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(1.0);
  spec.frame_size = 64;
  const auto r = core::run_capture_test(b.eng, b.osnt, 0, 1, spec,
                                        kPicosPerMilli);
  EXPECT_NEAR(r.offered_gbps, 10.0, 0.05);
  EXPECT_EQ(r.loss_fraction(), 0.0);
  EXPECT_NEAR(r.delivered_gbps, 10.0, 0.1);
}

TEST(PartOne, SequenceReportDetectsSwitchDrops) {
  dut::LegacySwitchConfig cfg;
  cfg.queue_bytes = 4 * 1024;
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  graph::Graph g{eng};
  g.emplace<dut::LegacySwitch>(eng, "sw", cfg);
  test::plug(g, "sw", 0, osnt.port(0));
  test::plug(g, "sw", 2, osnt.port(2));
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
  gen::TxConfig bg_cfg;
  bg_cfg.rate = gen::RateSpec::line_rate(0.9);
  auto& bg = osnt.configure_tx(2, bg_cfg);
  core::TrafficSpec bg_spec;
  bg_spec.dst_port = 6001;  // distinct from the probe stream
  bg_spec.frame_size = 1518;
  bg_spec.seed = 5;
  bg.set_source(core::make_source(bg_spec));
  bg.start();

  core::TrafficSpec probe;
  probe.rate = gen::RateSpec::line_rate(0.9);
  probe.frame_size = 512;
  const auto r =
      core::run_capture_test(eng, osnt, 0, 1, probe, 2 * kPicosPerMilli);
  bg.stop();
  EXPECT_GT(r.loss_fraction(), 0.0);
  const auto rep =
      osnt.capture().sequence_report(tstamp::kDefaultEmbedOffset, 1);
  EXPECT_GT(rep.lost, 0u);
}

TEST(PartTwo, OpenFlowSwitchForwardsAtLineRate) {
  // With a pre-installed exact rule, the OF data plane is a fixed-latency
  // pipeline: it must carry 64 B frames at full line rate with zero loss.
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  openflow::ControlChannel chan{eng};
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.latency_jitter_ns = 0;
  dut::OpenFlowSwitch sw{eng, chan, sw_cfg};
  hw::connect(osnt.port(0), sw.port(0));
  hw::connect(osnt.port(1), sw.port(1));

  openflow::FlowMod fm;
  fm.match = openflow::OfMatch::exact_5tuple(
      (10u << 24) | 1, (10u << 24) | (1 << 8) | 1, net::ipproto::kUdp, 1024,
      5001);
  fm.actions = {openflow::ActionOutput{2}};
  chan.controller().send(fm);
  eng.run();  // commit

  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(1.0);
  spec.frame_size = 64;
  const auto r = core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli);
  EXPECT_NEAR(r.offered_gbps, 10.0, 0.05);
  EXPECT_EQ(r.loss_fraction(), 0.0);
  EXPECT_EQ(sw.table_misses(), 0u);
  ASSERT_GT(r.latency_ns.count(), 1000u);
  // Fixed pipeline: jitter collapses to quantization.
  EXPECT_LT(r.jitter_ns.quantile(0.99), 2 * tstamp::kTickNanos + 0.1);
}

TEST(PartOne, FloodDuplicatesDetectedByHash) {
  // Unknown-destination flooding duplicates each frame onto every port;
  // the capture-side hash identifies the copies even though the monitor
  // snapped them to 64 B.
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  graph::Graph g{eng};
  g.emplace<dut::LegacySwitch>(eng, "sw");
  test::plug(g, "sw", 0, osnt.port(0));
  test::plug(g, "sw", 1, osnt.port(1));
  test::plug(g, "sw", 2, osnt.port(2));
  osnt.rx(1).cutter().set_snap_len(64);
  osnt.rx(2).cutter().set_snap_len(64);

  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(10'000);
  auto& tx = osnt.configure_tx(0, txc);
  core::TrafficSpec spec;
  spec.frame_count = 100;
  spec.frame_size = 512;
  tx.set_source(core::make_source(spec));
  tx.start();
  eng.run();

  // Every frame was flooded to both monitor ports.
  EXPECT_EQ(osnt.capture().size(), 200u);
  const auto rep = osnt.capture().duplicate_report();
  EXPECT_EQ(rep.unique, 100u);
  EXPECT_EQ(rep.duplicates, 100u);
  EXPECT_EQ(rep.multi_port, 100u);
}

TEST(PartOne, TimestampPrecisionSurvivesDut) {
  // Constant-latency DUT ⇒ measured jitter collapses to the 6.25 ns
  // quantization, demonstrating the measurement precision claim.
  dut::LegacySwitchConfig cfg;
  cfg.latency_jitter_ns = 0;
  PartOneBench b{cfg};
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(0.05);
  spec.frame_size = 512;
  const auto r = core::run_capture_test(b.eng, b.osnt, 0, 1, spec,
                                        2 * kPicosPerMilli);
  ASSERT_GT(r.jitter_ns.count(), 20u);
  EXPECT_LT(r.jitter_ns.quantile(0.99), 2 * tstamp::kTickNanos + 0.1);
}

}  // namespace
}  // namespace osnt
