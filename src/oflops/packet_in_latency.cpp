#include "osnt/oflops/packet_in_latency.hpp"

#include "osnt/gen/template_gen.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::oflops {

void PacketInLatencyModule::start(OflopsContext& ctx) {
  // Keep below the switch packet_in limiter.
  constexpr double kProbePps = 500.0;
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(kProbePps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;
  tc.count = cfg_.probes * 2;  // headroom for limiter losses
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(128)));
  tx.start();
}

void PacketInLatencyModule::on_of_message(OflopsContext& ctx,
                                          const openflow::Decoded& msg) {
  const auto* pin = std::get_if<openflow::PacketIn>(&msg.msg);
  if (!pin) return;
  // The embedded stamp sits at the default offset, inside the truncated
  // packet_in payload (128 B > 42 + 12).
  const auto stamp = tstamp::extract_timestamp(
      ByteSpan{pin->data.data(), pin->data.size()},
      tstamp::kDefaultEmbedOffset);
  if (!stamp) return;
  const double latency_ns = to_nanos(ctx.now()) - stamp->ts.to_nanos();
  latency_us_.add(latency_ns * 1e-3);
  ++received_;
  if (finished()) ctx.osnt().tx(0).stop();
}

Report PacketInLatencyModule::report() const {
  Report r;
  r.module = name();
  r.add("packet_ins_received", static_cast<double>(received_));
  r.add_distribution("packet_in_latency_us", latency_us_);
  return r;
}

}  // namespace osnt::oflops
