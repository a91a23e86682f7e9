// Automated RFC 2544-style benchmark of a legacy switch using the OSNT
// API: zero-loss throughput per frame size plus latency at the passing
// load — the "evaluate the achievable bandwidth and latency" use case.
// Each trial builds a pristine testbed (RFC 2544 methodology), which also
// makes trials seed-isolated: the sweep shards across every core via
// core::Runner and still prints byte-identical tables.
//
//   $ ./rfc2544_suite
#include <cstdio>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/rfc2544.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/net/builder.hpp"

using namespace osnt;

namespace {

core::TrialStats run_trial(const core::TrialPoint& pt) {
  // Fresh testbed per trial, per RFC 2544 methodology.
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  dut::LegacySwitch sw{eng};
  hw::connect(osnt.port(0), sw.port(0));
  hw::connect(osnt.port(1), sw.port(1));
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
  spec.rate = gen::RateSpec::line_rate(pt.load_fraction);
  spec.frame_size = pt.frame_size;
  const auto r = core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli);
  core::TrialStats s;
  s.tx_frames = r.tx_frames;
  s.rx_frames = r.rx_frames;
  s.offered_gbps = r.offered_gbps;
  s.latency_ns = r.latency_ns;
  return s;
}

}  // namespace

int main() {
  core::RunnerConfig runner;
  runner.jobs = 0;  // fill the machine; output is identical for any value

  std::printf("RFC 2544 throughput + latency, legacy switch DUT (%zu jobs)\n",
              runner.resolved_jobs());
  std::printf("%7s %12s %10s %10s %14s %7s\n", "size", "zero-loss", "Gb/s",
              "Mpps", "lat_p50_ns", "trials");

  core::ThroughputSearchConfig cfg;
  cfg.resolution = 0.01;
  for (const auto& pt : core::throughput_sweep(
           run_trial, core::rfc2544_frame_sizes(), cfg, runner)) {
    std::printf("%6zuB %11.1f%% %10.3f %10.3f %14.1f %7u\n", pt.frame_size,
                pt.max_load_fraction * 100.0, pt.gbps, pt.mpps,
                pt.latency_at_max_ns.quantile(0.5), pt.trials);
  }

  std::printf("\nframe loss rate ladder at 512 B:\n%8s %10s\n", "load",
              "loss%%");
  for (const auto& lp :
       core::loss_rate_sweep(run_trial, 512, 1.0, 0.25, runner)) {
    std::printf("%7.0f%% %9.3f%%\n", lp.load_fraction * 100.0,
                lp.loss_fraction * 100.0);
  }
  return 0;
}
