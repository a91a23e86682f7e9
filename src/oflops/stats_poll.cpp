#include "osnt/oflops/stats_poll.hpp"

#include "osnt/gen/template_gen.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

namespace {
constexpr double kProbePps = 500.0;
constexpr Picos kPollInterval = 10 * kPicosPerMilli;
}  // namespace

void StatsPollModule::start(OflopsContext& ctx) {
  // Fillers the stats scan will have to serialize over. They deliberately
  // do not match the probe flow, which must keep missing the table.
  std::vector<FlowMod> fill(cfg_.table_size);
  for (std::size_t i = 0; i < fill.size(); ++i) {
    fill[i].match = OfMatch::exact_5tuple(
        (172u << 24) | 1, (172u << 24) | static_cast<std::uint32_t>(i + 2),
        net::ipproto::kUdp, 2000, 2000);
    fill[i].priority = 0x4000;
    fill[i].actions = {ActionOutput{2}};
  }
  ctx.install(std::move(fill), kTimerFilled);

  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(kProbePps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(128)));
}

void StatsPollModule::on_of_message(OflopsContext& ctx,
                                    const openflow::Decoded& msg) {
  if (const auto* pin = std::get_if<PacketIn>(&msg.msg)) {
    const auto stamp = tstamp::extract_timestamp(
        ByteSpan{pin->data.data(), pin->data.size()},
        tstamp::kDefaultEmbedOffset);
    if (!stamp) return;
    const double us = (to_nanos(ctx.now()) - stamp->ts.to_nanos()) * 1e-3;
    if (phase_ == Phase::kBaseline) {
      baseline_pin_us_.add(us);
      if (baseline_pin_us_.count() >= cfg_.probes_per_phase) {
        phase_ = Phase::kPolling;
        ctx.timer_in(0, kTimerPoll);
      }
    } else if (phase_ == Phase::kPolling) {
      polling_pin_us_.add(us);
      if (polling_pin_us_.count() >= cfg_.probes_per_phase) {
        phase_ = Phase::kDone;
        done_ = true;
        ctx.osnt().tx(0).stop();
      }
    }
    return;
  }
  if (const auto* rep = std::get_if<FlowStatsReply>(&msg.msg)) {
    const auto it = stats_in_flight_.find(msg.xid);
    if (it == stats_in_flight_.end()) return;
    flows_reported_ += rep->flows.size();
    // A large table's reply comes in parts; the poll is answered by the
    // last one.
    if (rep->more) return;
    stats_rtt_ms_.add(to_seconds(ctx.now() - it->second) * 1e3);
    stats_in_flight_.erase(it);
  }
}

void StatsPollModule::on_timer(OflopsContext& ctx, std::uint64_t timer_id) {
  if (done_) return;
  if (timer_id == kTimerFilled) {
    ctx.await_table(cfg_.table_size, kTimerStartProbe);
    return;
  }
  if (timer_id == kTimerStartProbe) {
    phase_ = Phase::kBaseline;
    ctx.osnt().tx(0).start();
    return;
  }
  if (timer_id == kTimerPoll && phase_ == Phase::kPolling) {
    FlowStatsRequest req;
    req.match = OfMatch::any();
    const std::uint32_t xid = ctx.send(req);
    stats_in_flight_[xid] = ctx.now();
    ctx.timer_in(kPollInterval, kTimerPoll);
  }
}

Report StatsPollModule::report() const {
  Report r;
  r.module = name();
  r.add("table_size", static_cast<double>(cfg_.table_size), "rules");
  r.add("stats_polls_answered", static_cast<double>(stats_rtt_ms_.count()));
  r.add("flow_entries_reported", static_cast<double>(flows_reported_));
  r.add_distribution("stats_rtt_ms", stats_rtt_ms_);
  r.add_distribution("packet_in_baseline_us", baseline_pin_us_);
  r.add_distribution("packet_in_while_polling_us", polling_pin_us_);
  return r;
}

}  // namespace osnt::oflops
