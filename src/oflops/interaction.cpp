#include "osnt/oflops/interaction.hpp"

#include "osnt/gen/template_gen.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

void InteractionModule::start(OflopsContext& ctx) {
  // Prepare (but don't start) the table-miss storm from OSNT port 0.
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(cfg_.storm_pps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(128)));
  send_round(ctx);
}

void InteractionModule::send_round(OflopsContext& ctx) {
  // A fresh filler rule each round keeps ADD semantics identical.
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(
      (172u << 24) | (31 << 16) | 1,
      (172u << 24) | (31 << 16) | static_cast<std::uint32_t>(round_ + 2),
      net::ipproto::kUdp, 3000, 3000);
  fm.priority = 0x3000;
  fm.actions = {ActionOutput{2}};
  t_send_ = ctx.now();
  ctx.install({fm}, kTimerInstalled);
}

void InteractionModule::on_of_message(OflopsContext& /*ctx*/,
                                      const openflow::Decoded& msg) {
  if (std::holds_alternative<PacketIn>(msg.msg)) ++packet_ins_seen_;
}

void InteractionModule::on_timer(OflopsContext& ctx, std::uint64_t timer_id) {
  if (timer_id == kTimerRound && !done_) send_round(ctx);
  if (timer_id != kTimerInstalled) return;

  const double rtt_us = to_micros(ctx.now() - t_send_);
  (phase_ == Phase::kIdle ? idle_rtt_us_ : storm_rtt_us_).add(rtt_us);
  ++round_;

  if (phase_ == Phase::kIdle && idle_rtt_us_.count() >= cfg_.rounds_per_phase) {
    phase_ = Phase::kStorm;
    ctx.osnt().tx(0).start();  // unleash the table-miss traffic
  } else if (phase_ == Phase::kStorm &&
             storm_rtt_us_.count() >= cfg_.rounds_per_phase) {
    phase_ = Phase::kDone;
    done_ = true;
    ctx.osnt().tx(0).stop();
    return;
  }
  constexpr Picos kRoundInterval = 10 * kPicosPerMilli;
  ctx.timer_in(kRoundInterval, kTimerRound);
}

Report InteractionModule::report() const {
  Report r;
  r.module = name();
  r.add("packet_ins_during_run", static_cast<double>(packet_ins_seen_));
  r.add_distribution("barrier_rtt_idle_us", idle_rtt_us_);
  r.add_distribution("barrier_rtt_under_storm_us", storm_rtt_us_);
  if (idle_rtt_us_.count() && storm_rtt_us_.count()) {
    r.add("storm_slowdown_x",
          storm_rtt_us_.quantile(0.5) / idle_rtt_us_.quantile(0.5));
  }
  return r;
}

}  // namespace osnt::oflops
