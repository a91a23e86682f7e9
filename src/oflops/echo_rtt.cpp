#include "osnt/oflops/echo_rtt.hpp"

namespace osnt::oflops {

void EchoRttModule::start(OflopsContext& ctx) {
  ctx.timer_in(0, 0);
}

void EchoRttModule::on_timer(OflopsContext& ctx, std::uint64_t /*timer_id*/) {
  if (sent_ >= cfg_.count) {  // the grace after the last request is over
    grace_over_ = true;
    return;
  }
  openflow::EchoRequest req;
  req.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const std::uint32_t xid = ctx.send(req);
  in_flight_[xid] = ctx.now();
  ++sent_;
  ctx.timer_in(sent_ < cfg_.count ? cfg_.interval : kAnswerGrace, 0);
}

void EchoRttModule::on_of_message(OflopsContext& ctx,
                                  const openflow::Decoded& msg) {
  if (!std::holds_alternative<openflow::EchoReply>(msg.msg)) return;
  const auto it = in_flight_.find(msg.xid);
  if (it == in_flight_.end()) return;
  rtt_us_.add(to_micros(ctx.now() - it->second));
  in_flight_.erase(it);
  ++replies_;
}

Report EchoRttModule::report() const {
  Report r;
  r.module = name();
  r.add("echo_requests_sent", static_cast<double>(sent_));
  r.add("echo_replies", static_cast<double>(replies_));
  r.add_distribution("rtt_us", rtt_us_);
  return r;
}

}  // namespace osnt::oflops
