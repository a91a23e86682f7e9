#include "osnt/topo/fabric.hpp"

#include <stdexcept>
#include <string>

#include "osnt/gen/template_gen.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::topo {

LeafSpineFabric::LeafSpineFabric(sim::Engine& eng, Config cfg)
    : eng_(&eng), cfg_(cfg), graph_(eng) {
  if (cfg_.leaves == 0 || cfg_.spines == 0 || cfg_.testers_per_leaf == 0)
    throw std::invalid_argument("LeafSpineFabric: empty dimension");

  // Port plan: leaf = [0..testers_per_leaf) down, then one uplink per
  // spine; spine = one port per leaf. Switches otherwise keep the
  // LegacySwitchConfig defaults.
  dut::LegacySwitchConfig leaf_cfg;
  leaf_cfg.num_ports = cfg_.testers_per_leaf + cfg_.spines;
  leaf_cfg.flood_unknown = false;  // loop safety with multiple spines
  dut::LegacySwitchConfig spine_cfg;
  spine_cfg.num_ports = cfg_.leaves;
  spine_cfg.flood_unknown = false;

  for (std::size_t s = 0; s < cfg_.spines; ++s) {
    spines_.push_back(&graph_.emplace<dut::LegacySwitch>(
        eng, "spine" + std::to_string(s), spine_cfg));
  }
  for (std::size_t l = 0; l < cfg_.leaves; ++l) {
    const std::string leaf = "leaf" + std::to_string(l);
    leaves_.push_back(&graph_.emplace<dut::LegacySwitch>(eng, leaf, leaf_cfg));
    for (std::size_t s = 0; s < cfg_.spines; ++s) {
      const std::size_t uplink = cfg_.testers_per_leaf + s;
      graph_.connect(leaf, uplink, spines_[s]->name(), l);
      graph_.connect(spines_[s]->name(), l, leaf, uplink);
    }
  }

  const std::size_t n = cfg_.leaves * cfg_.testers_per_leaf;
  for (std::size_t i = 0; i < n; ++i) {
    // One-port testers with distinct deterministic clock seeds, so the
    // cards are independent.
    core::DeviceConfig tc;
    tc.num_ports = 1;
    tc.clock.osc.seed = 1000 + i;
    tc.gps.seed = 2000 + i;
    testers_.push_back(std::make_unique<core::OsntDevice>(eng, tc));
    hw::EthPort& port = testers_[i]->port(0);
    const std::string& leaf = leaves_[leaf_of(i)]->name();
    const std::size_t local = i % cfg_.testers_per_leaf;
    port.out_link().connect(graph_.input(leaf, local));
    graph_.connect_output(leaf, local, port.rx());
  }

  // Static forwarding: every switch knows every tester MAC.
  for (std::size_t i = 0; i < n; ++i) {
    const net::MacAddr mac = tester_mac(i);
    const std::size_t home_leaf = leaf_of(i);
    const std::size_t local = i % cfg_.testers_per_leaf;
    const std::size_t via_spine = spine_of(i);
    for (std::size_t l = 0; l < cfg_.leaves; ++l) {
      if (l == home_leaf) {
        leaves_[l]->add_static_mac(mac, local);
      } else {
        leaves_[l]->add_static_mac(mac, cfg_.testers_per_leaf + via_spine);
      }
    }
    for (std::size_t s = 0; s < cfg_.spines; ++s)
      spines_[s]->add_static_mac(mac, home_leaf);
  }
}

net::MacAddr LeafSpineFabric::tester_mac(std::size_t i) const noexcept {
  return net::MacAddr::from_index(0x1000 + i);
}

net::Ipv4Addr LeafSpineFabric::tester_ip(std::size_t i) const noexcept {
  return net::Ipv4Addr::of(10, 200, static_cast<std::uint8_t>(i >> 8),
                           static_cast<std::uint8_t>(i & 0xFF));
}

std::size_t LeafSpineFabric::hops(std::size_t i, std::size_t j) const noexcept {
  if (i == j) return 0;
  return leaf_of(i) == leaf_of(j) ? 1 : 3;  // leaf, or leaf→spine→leaf
}

SampleSet LeafSpineFabric::measure_latency(std::size_t src, std::size_t dst,
                                           std::size_t frames, double pps,
                                           std::size_t frame_size) {
  if (src >= testers_.size() || dst >= testers_.size() || src == dst)
    throw std::invalid_argument("measure_latency: bad tester pair");
  // A TemplateSource with count 0 never ends, and neither would the run.
  if (frames == 0) throw std::invalid_argument("measure_latency: 0 frames");

  auto& rx_dev = *testers_[dst];
  rx_dev.capture().clear();

  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(pps);
  txc.seed = 4000 + src;
  auto& tx = testers_[src]->configure_tx(0, txc);
  gen::TemplateConfig tc;
  tc.src_mac = tester_mac(src);
  tc.dst_mac = tester_mac(dst);
  tc.src_ip = tester_ip(src);
  tc.dst_ip = tester_ip(dst);
  tc.count = frames;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(frame_size)));
  tx.start();

  // Run until the source drains plus a generous in-flight allowance.
  while (tx.running()) {
    if (!eng_->step()) break;
  }
  eng_->run_until(eng_->now() + kPicosPerMilli);

  return rx_dev.capture().latency_ns(tstamp::kDefaultEmbedOffset, 0);
}

}  // namespace osnt::topo
