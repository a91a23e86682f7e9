// Automated RFC 2544-style benchmark of a legacy switch using the OSNT
// API: zero-loss throughput per frame size plus latency at the passing
// load — the "evaluate the achievable bandwidth and latency" use case.
// Each trial builds a pristine testbed (RFC 2544 methodology), which also
// makes trials seed-isolated: the sweep shards across every core via
// core::Runner and still prints byte-identical tables.
//
//   $ ./rfc2544_suite
#include <cstdio>

#include "osnt/core/rfc2544.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/graph/topology.hpp"

using namespace osnt;

int main() {
  core::RunnerConfig runner;
  runner.jobs = 0;  // fill the machine; output is identical for any value

  std::printf("RFC 2544 throughput + latency, legacy switch DUT (%zu jobs)\n",
              runner.resolved_jobs());
  std::printf("%7s %12s %10s %10s %14s %7s\n", "size", "zero-loss", "Gb/s",
              "Mpps", "lat_p50_ns", "trials");

  // One 1 ms trial of the `osnt_run --dut legacy` topology per probe.
  const core::Trial trial =
      graph::rfc2544_trial(graph::dut_topology("legacy"), kPicosPerMilli);
  core::ThroughputSearchConfig cfg;
  cfg.resolution = 0.01;
  for (const auto& pt : core::throughput_sweep(
           trial, core::rfc2544_frame_sizes(), cfg, runner)) {
    std::printf("%6zuB %11.1f%% %10.3f %10.3f %14.1f %7u\n", pt.frame_size,
                pt.max_load_fraction * 100.0, pt.gbps, pt.mpps,
                pt.latency_at_max_ns.quantile(0.5), pt.trials);
  }

  std::printf("\nframe loss rate ladder at 512 B:\n%8s %10s\n", "load",
              "loss%");
  for (const auto& lp :
       core::loss_rate_sweep(trial, 512, 1.0, 0.25, runner)) {
    std::printf("%7.0f%% %9.3f%%\n", lp.load_fraction * 100.0,
                lp.loss_fraction * 100.0);
  }
  return 0;
}
