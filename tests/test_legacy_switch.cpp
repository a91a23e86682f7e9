// Legacy switch model: learning, flooding, latency, queueing drops.
#include <gtest/gtest.h>

#include "osnt/dut/legacy_switch.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/net/builder.hpp"
#include "switch_graph.hpp"

namespace osnt::dut {
namespace {

net::Packet frame(std::uint64_t src_idx, std::uint64_t dst_idx,
                  std::size_t size = 128) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(src_idx),
               net::MacAddr::from_index(dst_idx))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
            net::ipproto::kUdp)
      .udp(1, 2)
      .pad_to_frame(size)
      .build();
}

struct Bench {
  sim::Engine eng;
  graph::Graph g{eng};
  LegacySwitch& sw;
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  std::vector<int> rx_count;

  explicit Bench(LegacySwitchConfig cfg = LegacySwitchConfig())
      : sw(g.emplace<LegacySwitch>(eng, "sw", cfg)) {
    rx_count.assign(cfg.num_ports, 0);
    for (std::size_t i = 0; i < cfg.num_ports; ++i) {
      hosts.push_back(std::make_unique<hw::EthPort>(eng));
      test::plug(g, "sw", i, *hosts[i]);
      hosts[i]->rx().set_handler(
          [this, i](net::Packet, Picos, Picos) { ++rx_count[i]; });
    }
  }
};

TEST(LegacySwitch, FloodsUnknownDestination) {
  Bench b;
  (void)b.hosts[0]->tx().transmit(frame(10, 20));
  b.eng.run();
  EXPECT_EQ(b.rx_count[0], 0);  // not back out the ingress
  EXPECT_EQ(b.rx_count[1], 1);
  EXPECT_EQ(b.rx_count[2], 1);
  EXPECT_EQ(b.rx_count[3], 1);
  EXPECT_EQ(b.sw.frames_flooded(), 1u);
}

TEST(LegacySwitch, FloodCopiesAreIdenticalAndInPortOrder) {
  // The last egress port gets the frame itself and the others get copies;
  // all must carry the same bytes and leave at the same release time.
  for (const std::size_t in : {std::size_t{0}, std::size_t{3}}) {
    Bench b;
    struct Arrival {
      std::size_t port;
      net::FrameBuf data;
      Picos first_bit;
    };
    std::vector<Arrival> got;
    for (std::size_t i = 0; i < b.hosts.size(); ++i) {
      b.hosts[i]->rx().set_handler(
          [&got, i](net::Packet p, Picos first_bit, Picos) {
            got.push_back({i, std::move(p.data), first_bit});
          });
    }
    const net::Packet sent = frame(10 + in, 20, 256);
    (void)b.hosts[in]->tx().transmit(net::Packet{sent});
    b.eng.run();
    ASSERT_EQ(got.size(), 3u) << "ingress " << in;
    std::size_t want_port = 0;
    for (const Arrival& a : got) {
      if (want_port == in) ++want_port;
      EXPECT_EQ(a.port, want_port++) << "ingress " << in;
      EXPECT_EQ(a.data, sent.data) << "ingress " << in;
      EXPECT_EQ(a.first_bit, got[0].first_bit) << "ingress " << in;
    }
  }
}

TEST(LegacySwitch, LearnsAndUnicasts) {
  Bench b;
  // Host on port 1 announces itself (src MAC 20).
  (void)b.hosts[1]->tx().transmit(frame(20, 99));
  b.eng.run();
  EXPECT_EQ(b.sw.mac_table_size(), 1u);
  // Now traffic to MAC 20 goes only to port 1.
  (void)b.hosts[0]->tx().transmit(frame(10, 20));
  b.eng.run();
  EXPECT_EQ(b.rx_count[1], 1);
  EXPECT_EQ(b.rx_count[2], 1);  // only the earlier flood
  EXPECT_EQ(b.rx_count[3], 1);
  EXPECT_EQ(b.sw.frames_forwarded(), 1u);
}

TEST(LegacySwitch, HairpinSuppressed) {
  Bench b;
  (void)b.hosts[0]->tx().transmit(frame(10, 99));  // learn MAC 10 @ port 0
  b.eng.run();
  const auto before = b.rx_count;
  (void)b.hosts[0]->tx().transmit(frame(11, 10));  // to MAC 10, from port 0
  b.eng.run();
  EXPECT_EQ(b.rx_count, before);  // nothing forwarded anywhere
  EXPECT_EQ(b.sw.drops(), 1u);
}

TEST(LegacySwitch, BroadcastAlwaysFloods) {
  Bench b;
  net::PacketBuilder pb;
  auto bc = pb.eth(net::MacAddr::from_index(1), net::MacAddr::broadcast())
                .arp(1, net::MacAddr::from_index(1),
                     net::Ipv4Addr::of(10, 0, 0, 1), net::MacAddr{},
                     net::Ipv4Addr::of(10, 0, 0, 2))
                .build();
  (void)b.hosts[2]->tx().transmit(std::move(bc));
  b.eng.run();
  EXPECT_EQ(b.rx_count[0] + b.rx_count[1] + b.rx_count[3], 3);
  EXPECT_EQ(b.rx_count[2], 0);
}

TEST(LegacySwitch, PipelineLatencyObserved) {
  LegacySwitchConfig cfg;
  cfg.pipeline_latency = 10 * kPicosPerMicro;
  cfg.latency_jitter_ns = 0;
  Bench b{cfg};
  // Learn both MACs first.
  (void)b.hosts[1]->tx().transmit(frame(20, 99));
  b.eng.run();
  Picos rx_at = -1;
  b.hosts[1]->rx().set_handler(
      [&](net::Packet, Picos first, Picos) { rx_at = first; });
  const Picos t0 = b.eng.now();
  (void)b.hosts[0]->tx().transmit(frame(10, 20, 64));
  b.eng.run();
  // cable + frame + pipeline + cable: ≈ 9.8 + 67.2 + 10000 + 9.8 ns.
  const double total_ns = to_nanos(rx_at - t0);
  EXPECT_NEAR(total_ns, 10'000 + 67.2 + 2 * 9.8, 5.0);
}

TEST(LegacySwitch, OverloadDropsAtOutputQueue) {
  LegacySwitchConfig cfg;
  cfg.queue_bytes = 8 * 1024;
  Bench b{cfg};
  // Learn victim MAC at port 3.
  (void)b.hosts[3]->tx().transmit(frame(30, 99));
  b.eng.run();
  // Two ports blast line rate at one output: 20G into 10G must drop.
  for (int i = 0; i < 500; ++i) {
    (void)b.hosts[0]->tx().transmit(frame(10, 30, 1518));
    (void)b.hosts[1]->tx().transmit(frame(11, 30, 1518));
  }
  b.eng.run();
  EXPECT_GT(b.sw.drops(), 0u);
  EXPECT_LT(b.rx_count[3], 1000);
  EXPECT_EQ(static_cast<std::uint64_t>(b.rx_count[3]) + b.sw.drops(), 1000u);
}

TEST(LegacySwitch, EveryFrameInIsForwardedOrCountedAsADrop) {
  // The lossy DUT: two ports and a 2 Mpps lookup stage, so 64 B frames
  // at line rate overflow the lookup queue.
  LegacySwitchConfig cfg;
  cfg.num_ports = 2;
  cfg.lookup_rate_mpps = 2.0;
  Bench b{cfg};
  // Half the frames go to MAC 10, which is host 0's own: hairpins.
  for (std::uint64_t i = 0; i < 2000; ++i)
    (void)b.hosts[0]->tx().transmit(frame(10, i % 2 == 0 ? 20 : 10, 64));
  b.eng.run();  // until drained
  EXPECT_EQ(b.sw.frames_in(), 2000u);
  EXPECT_GT(b.sw.drops(), 1000u);
  EXPECT_EQ(b.sw.frames_in(), b.sw.frames_out() + b.sw.drops());
  EXPECT_EQ(b.sw.frames_out(), static_cast<std::uint64_t>(b.rx_count[1]));
}

TEST(LegacySwitch, FramesItsRxMacsDiscardAreDrops) {
  // A BER'd stage in front of the switch: the RX MAC discards each frame
  // it corrupted, and the switch counts the discard as its own drop.
  const auto t = graph::TopologyFile::from_json(R"({
    "name": "ber_into_switch", "seed": 1, "duration_us": 5000,
    "blocks": [
      {"name": "noisy", "type": "delay_ber", "delay_ns": 500, "ber": 1e-5},
      {"name": "sw", "type": "legacy_switch", "num_ports": 2}],
    "edges": [{"from": "noisy:0", "to": "sw:0"}],
    "workload": {"kind": "cbr", "rate_gbps": 2.0, "frame_size": 512,
                 "ingress": "noisy:0", "egress": "sw:1"}})");
  const graph::TopologyTrialReport r = graph::run_topology_trial(t, t.seed);
  ASSERT_EQ(r.blocks.size(), 2u);
  const graph::BlockCounters& noisy = r.blocks[0];
  const graph::BlockCounters& sw = r.blocks[1];
  ASSERT_EQ(sw.name, "sw");
  EXPECT_EQ(sw.frames_in, noisy.frames_out);
  EXPECT_GT(sw.drops, 0u);
  EXPECT_EQ(sw.frames_in, sw.frames_out + sw.drops);
  EXPECT_EQ(sw.frames_out, r.cbr.rx_frames);
}

TEST(LegacySwitch, MacTableCapacityBounded) {
  LegacySwitchConfig cfg;
  cfg.mac_table_size = 4;
  Bench b{cfg};
  for (std::uint64_t m = 1; m <= 10; ++m)
    (void)b.hosts[0]->tx().transmit(frame(100 + m, 999));
  b.eng.run();
  EXPECT_LE(b.sw.mac_table_size(), 4u);
}

TEST(LegacySwitch, CutThroughFasterThanStoreForward) {
  LegacySwitchConfig sf_cfg;
  sf_cfg.latency_jitter_ns = 0;
  sf_cfg.pipeline_latency = 2 * kPicosPerMicro;
  LegacySwitchConfig ct_cfg = sf_cfg;
  ct_cfg.cut_through = true;

  auto measure = [](LegacySwitchConfig cfg) {
    Bench b{cfg};
    (void)b.hosts[1]->tx().transmit(frame(20, 99));
    b.eng.run();
    Picos rx_at = -1;
    b.hosts[1]->rx().set_handler(
        [&](net::Packet, Picos first, Picos) { rx_at = first; });
    const Picos t0 = b.eng.now();
    (void)b.hosts[0]->tx().transmit(frame(10, 20, 1518));
    b.eng.run();
    return rx_at - t0;
  };
  // A 1518 B frame takes ~1.23 µs to receive; cut-through saves that.
  EXPECT_LT(measure(ct_cfg), measure(sf_cfg));
}

}  // namespace
}  // namespace osnt::dut
