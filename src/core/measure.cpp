#include "osnt/core/measure.hpp"

#include <cmath>

#include "osnt/gen/template_gen.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::core {

std::unique_ptr<gen::PacketSource> make_source(const TrafficSpec& spec) {
  std::unique_ptr<gen::SizeModel> sizes;
  switch (spec.sizes) {
    case TrafficSpec::Sizes::kFixed:
      sizes = std::make_unique<gen::FixedSize>(spec.frame_size);
      break;
    case TrafficSpec::Sizes::kImix:
      sizes = std::make_unique<gen::ImixSize>();
      break;
  }
  gen::TemplateConfig tc;
  tc.flow_count = spec.flow_count;
  tc.dst_port = spec.dst_port;
  tc.count = spec.frame_count;
  tc.seed = spec.seed;
  return std::make_unique<gen::TemplateSource>(tc, std::move(sizes));
}

std::unique_ptr<gen::GapModel> make_gap_model(const TrafficSpec& spec) {
  switch (spec.arrivals) {
    case TrafficSpec::Arrivals::kPoisson:
      return std::make_unique<gen::PoissonGap>();
    case TrafficSpec::Arrivals::kBurst:
      return std::make_unique<gen::BurstGap>(spec.burst_len);
    case TrafficSpec::Arrivals::kCbr:
      break;
  }
  return std::make_unique<gen::ConstantGap>();
}

RunResult run_capture_test(sim::Engine& eng, OsntDevice& dev,
                           std::size_t tx_port, std::size_t rx_port,
                           const TrafficSpec& spec, Picos duration,
                           const mon::FilterRule* capture_filter) {
  gen::TxConfig txc;
  txc.rate = spec.rate;
  txc.seed = spec.seed;
  auto& tx = dev.configure_tx(tx_port, txc);
  tx.set_source(make_source(spec));
  tx.set_gap_model(make_gap_model(spec));

  // Select the probe stream on the monitor side: the same wildcard rule
  // drives the capture filter (protects the loss-limited DMA path from
  // competing traffic) and a pre-DMA probe counter (true delivered count).
  auto& rx = dev.rx(rx_port);
  mon::FilterRule probe_rule;
  probe_rule.protocol = net::ipproto::kUdp;
  probe_rule.dst_port = spec.dst_port;
  rx.filters().clear();
  rx.filters().add(capture_filter ? *capture_filter : probe_rule);
  rx.set_probe(probe_rule);
  dev.capture().clear();

  const Picos t0 = eng.now();
  tx.start();
  eng.run_until(t0 + duration);
  tx.stop();
  // Drain: let in-flight frames and DMA transfers land.
  eng.run_until(eng.now() + 10 * kPicosPerMilli);

  RunResult r;
  r.tx_frames = tx.frames_sent();
  r.rx_frames = rx.probe_seen();
  r.captured = rx.captured();
  r.dma_drops = rx.dma_drops();
  r.offered_gbps = tx.achieved_gbps();
  r.delivered_gbps = rx.stats().mean_gbps();
  r.latency_ns = dev.capture().latency_ns(tstamp::kDefaultEmbedOffset,
                                          static_cast<int>(rx_port));

  const auto& lat = r.latency_ns.samples();
  for (std::size_t i = 1; i < lat.size(); ++i)
    r.jitter_ns.add(std::abs(lat[i] - lat[i - 1]));
  return r;
}

}  // namespace osnt::core
