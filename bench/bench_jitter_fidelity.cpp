// E8 — "accurate timestamping mechanism ... used for timing-related
// network measurements, such as latency and jitter" (§1). Inject a known
// latency + jitter in the DUT and check OSNT measures exactly that —
// measurement fidelity against simulation ground truth.
#include <cmath>
#include <cstdio>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/dut/legacy_switch.hpp"
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
  std::printf("E8: latency/jitter measurement fidelity vs injected ground "
              "truth\n");
  std::printf("%12s %12s | %14s %14s %12s\n", "true_lat_ns", "true_jit_ns",
              "meas_p50_ns", "expect_ns", "meas_sigma");

  // Fixed per-frame terms between the TX stamp and the RX stamp for a
  // 512 B probe: TX serialization (frame fully received by the switch),
  // two cable hops, minus nothing at RX (stamped at first bit).
  const double fixed_ns =
      to_nanos(net::serialization_time(512 + net::kEthPerFrameOverhead, 10.0)) +
      2 * to_nanos(sim::fiber_delay(2.0));

  for (const double lat_us : {1.0, 10.0, 100.0}) {
    for (const double jit_ns : {0.0, 50.0, 500.0}) {
      sim::Engine eng;
      core::OsntDevice osnt{eng};
      dut::LegacySwitchConfig cfg;
      cfg.pipeline_latency = from_micros(lat_us);
      cfg.latency_jitter_ns = jit_ns;
      dut::LegacySwitch sw{eng, cfg};
      hw::connect(osnt.port(0), sw.port(0));
      hw::connect(osnt.port(1), sw.port(1));
      prime_learning(eng, osnt);

      core::TrafficSpec spec;
      spec.rate = gen::RateSpec::line_rate(0.02);  // no queueing noise
      spec.frame_size = 512;
      const auto r = core::run_capture_test(eng, osnt, 0, 1, spec,
                                            8 * kPicosPerMilli);
      const double expect = lat_us * 1000.0 + fixed_ns;
      std::printf("%12.0f %12.0f | %14.1f %14.1f %12.2f\n", lat_us * 1000.0,
                  jit_ns, r.latency_ns.quantile(0.5), expect,
                  r.latency_ns.stddev());
    }
  }
  std::printf("\nShape check: measured p50 tracks injected latency + fixed "
              "serialization terms to within the 6.25 ns tick; measured "
              "sigma tracks the injected jitter (half-normal: sigma_meas ~= "
              "0.6 x injected).\n");
  return 0;
}
