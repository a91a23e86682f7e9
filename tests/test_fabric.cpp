// Static MAC programming, no-flood mode, and the leaf-spine fabric.
#include <gtest/gtest.h>

#include "osnt/net/builder.hpp"
#include "osnt/topo/fabric.hpp"
#include "switch_graph.hpp"

namespace osnt {
namespace {

net::Packet to_mac(net::MacAddr src, net::MacAddr dst) {
  net::PacketBuilder b;
  return b.eth(src, dst)
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
            net::ipproto::kUdp)
      .udp(1, 2)
      .build();
}

TEST(StaticMac, ForwardsWithoutLearning) {
  sim::Engine eng;
  graph::Graph g{eng};
  auto& sw = g.emplace<dut::LegacySwitch>(eng, "sw");
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  std::vector<int> rx(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<hw::EthPort>(eng));
    test::plug(g, "sw", i, *hosts[i]);
    hosts[i]->rx().set_handler([&rx, i](net::Packet, Picos, Picos) { ++rx[i]; });
  }
  const auto dst = net::MacAddr::from_index(50);
  sw.add_static_mac(dst, 2);
  (void)hosts[0]->tx().transmit(to_mac(net::MacAddr::from_index(1), dst));
  eng.run();
  EXPECT_EQ(rx[2], 1);        // unicast straight to the programmed port
  EXPECT_EQ(rx[1] + rx[3], 0);
  EXPECT_EQ(sw.frames_flooded(), 0u);
}

TEST(StaticMac, SurvivesLearningAndAging) {
  sim::Engine eng;
  dut::LegacySwitchConfig cfg;
  cfg.mac_aging = kPicosPerSec;  // aggressive aging
  graph::Graph g{eng};
  auto& sw = g.emplace<dut::LegacySwitch>(eng, "sw", cfg);
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  for (std::size_t i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<hw::EthPort>(eng));
    test::plug(g, "sw", i, *hosts[i]);
  }
  const auto mac = net::MacAddr::from_index(50);
  sw.add_static_mac(mac, 2);
  // A frame *from* that MAC on a different port must not relearn it...
  (void)hosts[0]->tx().transmit(to_mac(mac, net::MacAddr::from_index(9)));
  eng.run();
  int rx2 = 0;
  hosts[2]->rx().set_handler([&](net::Packet, Picos, Picos) { ++rx2; });
  // ...and it survives aging.
  eng.run_until(10 * kPicosPerSec);
  (void)hosts[1]->tx().transmit(to_mac(net::MacAddr::from_index(1), mac));
  eng.run();
  EXPECT_EQ(rx2, 1);
}

TEST(NoFlood, UnknownUnicastDropped) {
  sim::Engine eng;
  dut::LegacySwitchConfig cfg;
  cfg.flood_unknown = false;
  graph::Graph g{eng};
  auto& sw = g.emplace<dut::LegacySwitch>(eng, "sw", cfg);
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  int total_rx = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<hw::EthPort>(eng));
    test::plug(g, "sw", i, *hosts[i]);
    hosts[i]->rx().set_handler([&](net::Packet, Picos, Picos) { ++total_rx; });
  }
  (void)hosts[0]->tx().transmit(
      to_mac(net::MacAddr::from_index(1), net::MacAddr::from_index(99)));
  eng.run();
  EXPECT_EQ(total_rx, 0);
  EXPECT_EQ(sw.drops(), 1u);
  // Broadcast still floods (control traffic must work).
  net::PacketBuilder b;
  (void)hosts[0]->tx().transmit(
      b.eth(net::MacAddr::from_index(1), net::MacAddr::broadcast())
          .arp(1, net::MacAddr::from_index(1), net::Ipv4Addr::of(1, 1, 1, 1),
               net::MacAddr{}, net::Ipv4Addr::of(1, 1, 1, 2))
          .build());
  eng.run();
  EXPECT_EQ(total_rx, 3);
}

// ---------------------------------------------------------------- fabric

TEST(Fabric, RejectsEmptyDimensions) {
  sim::Engine eng;
  topo::FabricConfig cfg;
  cfg.leaves = 0;
  EXPECT_THROW(topo::LeafSpineFabric(eng, cfg), std::invalid_argument);
}

TEST(Fabric, AllPairsReachable) {
  sim::Engine eng;
  topo::FabricConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 2;
  cfg.testers_per_leaf = 2;
  topo::LeafSpineFabric fabric{eng, cfg};
  ASSERT_EQ(fabric.tester_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      const auto lat = fabric.measure_latency(i, j, 20);
      EXPECT_EQ(lat.count(), 20u) << i << "->" << j;
      EXPECT_GT(lat.quantile(0.5), 0.0);
    }
  }
  // Loop safety: nothing was ever flooded.
  for (std::size_t l = 0; l < 2; ++l)
    EXPECT_EQ(fabric.leaf(l).frames_flooded(), 0u);
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_EQ(fabric.spine(s).frames_flooded(), 0u);
}

TEST(Fabric, InterLeafSlowerThanIntraLeaf) {
  sim::Engine eng;
  topo::FabricConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 1;
  cfg.testers_per_leaf = 2;
  topo::LeafSpineFabric fabric{eng, cfg};
  // T0,T1 share leaf 0; T2 lives on leaf 1.
  EXPECT_EQ(fabric.hops(0, 1), 1u);
  EXPECT_EQ(fabric.hops(0, 2), 3u);
  const double intra = fabric.measure_latency(0, 1, 50).quantile(0.5);
  const double inter = fabric.measure_latency(0, 2, 50).quantile(0.5);
  EXPECT_GT(inter, 2.0 * intra);  // 3 store-and-forward hops vs 1
}

TEST(Fabric, SpineSpreadByDestination) {
  sim::Engine eng;
  topo::FabricConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 2;
  cfg.testers_per_leaf = 2;
  topo::LeafSpineFabric fabric{eng, cfg};
  // Traffic to T2 (even) rides spine 0; to T3 (odd) rides spine 1.
  (void)fabric.measure_latency(0, 2, 10);
  EXPECT_GT(fabric.spine(0).frames_forwarded(), 0u);
  const auto before = fabric.spine(1).frames_forwarded();
  (void)fabric.measure_latency(0, 3, 10);
  EXPECT_GT(fabric.spine(1).frames_forwarded(), before);
}

TEST(Fabric, AddressingDeterministic) {
  sim::Engine eng;
  topo::LeafSpineFabric fabric{eng};
  EXPECT_EQ(fabric.tester_mac(0), fabric.tester_mac(0));
  EXPECT_NE(fabric.tester_mac(0), fabric.tester_mac(1));
  EXPECT_NE(fabric.tester_ip(0), fabric.tester_ip(1));
}

TEST(Fabric, BadPairThrows) {
  sim::Engine eng;
  topo::LeafSpineFabric fabric{eng};
  EXPECT_THROW((void)fabric.measure_latency(0, 0), std::invalid_argument);
  EXPECT_THROW((void)fabric.measure_latency(0, 99), std::invalid_argument);
}

TEST(Fabric, ZeroFramesThrows) {
  // A probe source with count 0 is unbounded, so the run would never end.
  sim::Engine eng;
  topo::LeafSpineFabric fabric{eng};
  EXPECT_THROW((void)fabric.measure_latency(0, 1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace osnt
