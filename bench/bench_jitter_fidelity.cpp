// E8 — "accurate timestamping mechanism ... used for timing-related
// network measurements, such as latency and jitter" (§1). Inject a known
// latency + jitter in the DUT and check OSNT measures exactly that —
// measurement fidelity against simulation ground truth.
#include <cstdio>

#include "osnt/graph/topology.hpp"

using namespace osnt;

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
      // The `osnt_run latency --dut legacy` topology, with the switch's
      // latency and jitter set to the ground truth.
      graph::TopologyFile topo = graph::dut_topology("legacy");
      dut::LegacySwitchConfig& sw = topo.blocks.front().legacy_switch;
      sw.pipeline_latency = from_micros(lat_us);
      sw.latency_jitter_ns = jit_ns;
      topo.workload.rate_gbps = 0.2;  // 2% of line rate: no queueing noise
      topo.workload.frame_size = 512;
      const core::TrialStats r =
          graph::run_topology_trial(topo, 1, 8 * kPicosPerMilli).cbr;
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
