// Demo Part I: measure the packet-processing latency of a legacy switch
// under different load conditions. One OSNT port generates timestamped
// traffic at a variable rate; another captures it after the switch and
// estimates switching latency — exactly the workflow the paper describes.
//
// The switch is a one-node scenario graph (dut::LegacySwitch is a graph
// block), so this doubles as the minimal example of wiring an OSNT tester
// through the composable dataplane API.
//
//   $ ./legacy_switch_test
#include <cstdio>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/net/builder.hpp"

using namespace osnt;

namespace {

void prime_learning(sim::Engine& eng, core::OsntDevice& osnt) {
  // Announce the monitor-side MAC so the switch unicasts probe traffic.
  net::PacketBuilder b;
  (void)osnt.port(1).tx().transmit(
      b.eth(net::MacAddr::from_index(2), net::MacAddr::from_index(1))
          .ipv4(net::Ipv4Addr::of(10, 0, 1, 1), net::Ipv4Addr::of(10, 0, 0, 1),
                net::ipproto::kUdp)
          .udp(5001, 1024)
          .build());
  eng.run();
}

}  // namespace

int main() {
  std::printf("Part I demo: legacy switch latency vs load\n");
  std::printf("%8s %10s %12s %12s %12s %12s %9s\n", "load", "offered",
              "lat_min_ns", "lat_p50_ns", "lat_p99_ns", "lat_max_ns", "loss%");

  for (const double load : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    // Fresh testbed per load point: OSNT ports 0,2 → switch; port 1 captures.
    sim::Engine eng;
    core::OsntDevice osnt{eng};
    graph::Graph g{eng};
    g.emplace<dut::LegacySwitch>(eng, "sw");
    for (std::size_t p : {0, 1, 2}) {
      osnt.port(p).out_link().connect(g.input("sw", p));
      g.connect_output("sw", p, osnt.port(p).rx());
    }
    g.start();
    prime_learning(eng, osnt);

    // Competing traffic from port 2 creates the "load condition": it
    // shares the probe's egress port.
    gen::TxConfig bg_cfg;
    bg_cfg.rate = gen::RateSpec::line_rate(load * 0.9);
    auto& bg = osnt.configure_tx(2, bg_cfg);
    core::TrafficSpec bg_spec;
    bg_spec.dst_port = 6001;  // distinct from the probe stream
    bg_spec.frame_size = 1518;
    bg_spec.seed = 7;
    bg.set_source(core::make_source(bg_spec));
    bg.start();

    core::TrafficSpec probe;
    probe.rate = gen::RateSpec::line_rate(load * 0.1);
    probe.frame_size = 256;
    const auto r =
        core::run_capture_test(eng, osnt, 0, 1, probe, 4 * kPicosPerMilli);
    bg.stop();

    std::printf("%7.0f%% %9.2fG %12.1f %12.1f %12.1f %12.1f %8.3f%%\n",
                load * 100.0, r.offered_gbps + bg.achieved_gbps(),
                r.latency_ns.min(), r.latency_ns.quantile(0.5),
                r.latency_ns.quantile(0.99), r.latency_ns.max(),
                r.loss_fraction() * 100.0);
  }
  std::printf("\nThe knee near 100%% offered load is the switch's egress "
              "queue filling up.\n");
  return 0;
}
