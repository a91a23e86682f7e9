// E4 — demo Part I: "evaluate the achievable bandwidth ... of a network
// device" — RFC 2544-style zero-loss throughput per frame size, for a
// wire-rate switch and a deliberately under-provisioned one (to show the
// search finding a real capacity limit).
#include <cstdio>

#include "osnt/core/rfc2544.hpp"
#include "osnt/graph/topology.hpp"

using namespace osnt;

namespace {

/// The search `osnt_run throughput --dut DUT --resolution 0.01` runs: 1 ms
/// trials of the --dut topology, a 2-port switch block.
void sweep(const char* label, const char* dut) {
  std::printf("\nDUT: %s\n%7s %12s %10s %10s %14s\n", label, "size",
              "zero-loss", "Gb/s", "Mpps", "lat_p50_ns");
  const core::Trial trial =
      graph::rfc2544_trial(graph::dut_topology(dut), kPicosPerMilli);
  core::ThroughputSearchConfig cfg;
  cfg.resolution = 0.01;
  for (const std::size_t size : core::rfc2544_frame_sizes()) {
    const auto pt = core::find_throughput(trial, size, cfg);
    std::printf("%6zuB %11.1f%% %10.3f %10.3f %14.1f\n", pt.frame_size,
                pt.max_load_fraction * 100.0, pt.gbps, pt.mpps,
                pt.latency_at_max_ns.quantile(0.5));
  }
}

}  // namespace

int main() {
  std::printf("E4: RFC 2544 zero-loss throughput sweep (demo Part I, "
              "achievable bandwidth)\n");
  sweep("wire-rate store-and-forward switch", "legacy");
  // A packet-rate-limited lookup engine: small frames saturate it long
  // before the link fills — the classic under-provisioned-switch shape.
  sweep("lookup-limited switch (2 Mpps forwarding engine)", "lossy");
  std::printf("\nShape check: wire-rate DUT passes 100%% at every size; the "
              "lookup-limited DUT caps at ~2 Mpps, i.e. ~13%% of line rate "
              "at 64 B but full rate at 1518 B.\n");
  return 0;
}
