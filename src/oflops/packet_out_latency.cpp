#include "osnt/oflops/packet_out_latency.hpp"

#include "osnt/net/builder.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

void PacketOutLatencyModule::start(OflopsContext& ctx) {
  ctx.timer_in(0, 0);
}

void PacketOutLatencyModule::on_timer(OflopsContext& ctx,
                                      std::uint64_t /*timer_id*/) {
  if (sent_ >= cfg_.count) {  // the grace after the last frame is over
    grace_over_ = true;
    return;
  }
  net::PacketBuilder b;
  net::Packet pkt =
      b.eth(net::MacAddr::from_index(0xC0), net::MacAddr::from_index(0xC1))
          .ipv4(net::Ipv4Addr::of(10, 9, 0, 1), net::Ipv4Addr::of(10, 9, 0, 2),
                net::ipproto::kUdp)
          .udp(7000, 7001)
          .pad_to_frame(128)
          .build();
  // The controller stamps with absolute (GPS) time — its host clock; the
  // capture side compares against the card's disciplined stamp.
  tstamp::embed_timestamp(
      pkt.mut_bytes(), tstamp::kDefaultEmbedOffset,
      {tstamp::Timestamp::from_nanos(to_nanos(ctx.now())),
       static_cast<std::uint32_t>(sent_)});
  PacketOut po;
  po.actions = {ActionOutput{cfg_.out_port}};
  po.data = to_bytes(pkt.bytes());
  ctx.send(po);
  ++sent_;
  ctx.timer_in(sent_ < cfg_.count ? cfg_.interval : kAnswerGrace, 0);
}

void PacketOutLatencyModule::on_capture(OflopsContext& ctx,
                                        const mon::CaptureRecord& rec) {
  (void)ctx;
  if (rec.port != cfg_.out_port - 1) return;
  const auto stamp = tstamp::extract_timestamp(
      ByteSpan{rec.data.data(), rec.data.size()}, tstamp::kDefaultEmbedOffset);
  if (!stamp) return;
  latency_us_.add(tstamp::delta_nanos(rec.ts, stamp->ts) * 1e-3);
  ++received_;
}

Report PacketOutLatencyModule::report() const {
  Report r;
  r.module = name();
  r.add("packet_outs_sent", static_cast<double>(sent_));
  r.add("frames_observed", static_cast<double>(received_));
  r.add_distribution("packet_out_latency_us", latency_us_);
  return r;
}

}  // namespace osnt::oflops
