// PCAP replay + capture-side thinning: synthesize a bursty trace, write
// it to a .pcap, replay it through OSNT at 4× speed, capture with a 64 B
// snap length, and dump the (thinned) capture to another .pcap.
//
//   $ ./pcap_replay [output_dir]
#include <cstdio>
#include <string>

#include "osnt/core/device.hpp"
#include "osnt/gen/replay.hpp"
#include "osnt/gen/synth.hpp"
#include "osnt/gen/template_gen.hpp"
#include "osnt/net/pcap.hpp"

using namespace osnt;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string trace_path = dir + "/osnt_demo_trace.pcap";
  const std::string capture_path = dir + "/osnt_demo_capture.pcap";

  // --- 1. Synthesize a trace: 2000 IMIX frames in bursts of 8 ---
  {
    gen::TemplateConfig tc;
    tc.flow_count = 16;
    gen::TemplateSource src{tc, std::make_unique<gen::ImixSize>()};
    gen::BurstGap gaps{8};
    gen::SynthSpec spec;
    spec.frames = 2000;
    spec.mean_gap_ns = 10'000;
    std::printf("wrote %zu-frame trace to %s\n",
                gen::synthesize_trace_file(trace_path, src, gaps, spec),
                trace_path.c_str());
  }

  // --- 2. Replay it through an OSNT port at 4x into a monitor port ---
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));

  // Thin the capture: keep 64 bytes per frame, hash the full frame.
  osnt.rx(1).cutter().set_snap_len(64);

  gen::TxConfig txc;
  auto& tx = osnt.configure_tx(0, txc);
  gen::ReplayConfig rc;
  rc.speedup = 4.0;
  tx.set_source(std::make_unique<gen::PcapReplaySource>(trace_path, rc));
  tx.start();
  eng.run();

  const auto& rx = osnt.rx(1);
  std::printf("replayed %llu frames at 4x: monitor saw %llu, host captured "
              "%llu (DMA drops %llu)\n",
              static_cast<unsigned long long>(tx.frames_sent()),
              static_cast<unsigned long long>(rx.stats().frames()),
              static_cast<unsigned long long>(rx.captured()),
              static_cast<unsigned long long>(rx.dma_drops()));
  std::printf("monitor rates: %.3f Gb/s, %.0f pps mean\n",
              rx.stats().mean_gbps(), rx.stats().mean_pps());

  // --- 3. Dump the thinned capture ---
  osnt.capture().write_pcap(capture_path);
  std::printf("wrote thinned capture (%zu records, 64 B snap) to %s\n",
              osnt.capture().size(), capture_path.c_str());

  // Show that orig_len survived the thinning.
  const auto back = net::PcapReader::read_all(capture_path);
  std::size_t snapped = 0;
  for (const auto& r : back)
    if (r.orig_len > r.data.size()) ++snapped;
  std::printf("%zu of %zu records carry orig_len > snap (cut in hardware)\n",
              snapped, back.size());
  return 0;
}
