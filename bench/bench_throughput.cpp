// E4 — demo Part I: "evaluate the achievable bandwidth ... of a network
// device" — RFC 2544-style zero-loss throughput per frame size, for a
// wire-rate switch and a deliberately under-provisioned one (to show the
// search finding a real capacity limit).
#include <cstdio>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/rfc2544.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/net/builder.hpp"

using namespace osnt;

namespace {

core::TrialStats trial(const core::TrialPoint& pt, double lookup_mpps) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  dut::LegacySwitchConfig cfg;
  cfg.lookup_rate_mpps = lookup_mpps;
  dut::LegacySwitch sw{eng, cfg};
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

void sweep(const char* label, double lookup_mpps) {
  std::printf("\nDUT: %s\n%7s %12s %10s %10s %14s\n", label, "size",
              "zero-loss", "Gb/s", "Mpps", "lat_p50_ns");
  core::ThroughputSearchConfig cfg;
  cfg.resolution = 0.01;
  for (const std::size_t size : core::rfc2544_frame_sizes()) {
    const auto pt = core::find_throughput(
        [&](const core::TrialPoint& pt) { return trial(pt, lookup_mpps); },
        size, cfg);
    std::printf("%6zuB %11.1f%% %10.3f %10.3f %14.1f\n", pt.frame_size,
                pt.max_load_fraction * 100.0, pt.gbps, pt.mpps,
                pt.latency_at_max_ns.quantile(0.5));
  }
}

}  // namespace

int main() {
  std::printf("E4: RFC 2544 zero-loss throughput sweep (demo Part I, "
              "achievable bandwidth)\n");
  sweep("wire-rate store-and-forward switch", 0.0);
  // A packet-rate-limited lookup engine: small frames saturate it long
  // before the link fills — the classic under-provisioned-switch shape.
  sweep("lookup-limited switch (2 Mpps forwarding engine)", 2.0);
  std::printf("\nShape check: wire-rate DUT passes 100%% at every size; the "
              "lookup-limited DUT caps at ~2 Mpps, i.e. ~13%% of line rate "
              "at 64 B but full rate at 1518 B.\n");
  return 0;
}
