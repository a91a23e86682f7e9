// E3 — demo Part I: "accurately measure the packet-processing latency of
// a legacy switch under different load conditions". Latency distribution
// vs offered load for three probe frame sizes, with competing traffic
// sharing the egress port.
#include <algorithm>
#include <cstdio>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/net/builder.hpp"

using namespace osnt;

namespace {

void prime_learning(sim::Engine& eng, core::OsntDevice& osnt) {
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
  std::printf("E3: legacy switch latency vs load (demo Part I)\n");
  std::printf("%7s %7s %12s %12s %12s %12s %9s\n", "probe", "load",
              "lat_min_ns", "lat_p50_ns", "lat_p99_ns", "lat_max_ns",
              "loss%");

  for (const std::size_t frame : {std::size_t{64}, std::size_t{512},
                                  std::size_t{1518}}) {
    for (const double load : {0.2, 0.5, 0.8, 0.95, 1.0, 1.05}) {
      sim::Engine eng;
      core::OsntDevice osnt{eng};
      graph::Graph g{eng};
      g.emplace<dut::LegacySwitch>(eng, "sw");
      for (const std::size_t p : {0, 1, 2}) {
        osnt.port(p).out_link().connect(g.input("sw", p));
        g.connect_output("sw", p, osnt.port(p).rx());
      }
      prime_learning(eng, osnt);

      // Background stream occupies (load - 5%) of the shared egress; a
      // total above 100% overloads it and exposes the queueing knee.
      gen::TxConfig bg_cfg;
      bg_cfg.rate = gen::RateSpec::line_rate(
          std::clamp(load - 0.05, 0.01, 1.0));
      bg_cfg.seed = 7;
      auto& bg = osnt.configure_tx(2, bg_cfg);
      core::TrafficSpec bg_spec;
      bg_spec.dst_port = 6001;  // distinct from the probe stream
      bg_spec.frame_size = 1518;
      bg_spec.seed = 7;
      bg.set_source(core::make_source(bg_spec));
      bg.start();

      core::TrafficSpec probe;
      probe.rate = gen::RateSpec::line_rate(0.05);
      probe.frame_size = frame;
      const auto r =
          core::run_capture_test(eng, osnt, 0, 1, probe, 8 * kPicosPerMilli);
      bg.stop();

      std::printf("%6zuB %6.0f%% %12.1f %12.1f %12.1f %12.1f %8.3f%%\n",
                  frame, load * 100.0, r.latency_ns.min(),
                  r.latency_ns.quantile(0.5), r.latency_ns.quantile(0.99),
                  r.latency_ns.max(), r.loss_fraction() * 100.0);
    }
  }
  std::printf("\nShape check: flat sub-2us latency at low load, queueing "
              "knee (p99 explosion, then loss) as the egress saturates.\n");
  return 0;
}
