#include "osnt/oflops/flowmod_latency.hpp"

#include "osnt/core/measure.hpp"
#include "osnt/gen/template_gen.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

namespace {
constexpr double kProbePps = 100000.0;  ///< probe flow rate
}  // namespace

FlowMod FlowModLatencyModule::probe_rule(std::uint16_t out_port) const {
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(gen::TemplateConfig{}.flow(0));
  fm.priority = 0x9000;
  fm.actions = {ActionOutput{out_port}};
  return fm;
}

void FlowModLatencyModule::start(OflopsContext& ctx) {
  target_osnt_port_ = 1;  // initial probe rule → switch port 2 (OSNT 1)
  phase_ = Phase::kFill;
  // Pre-populate the table with filler rules (distinct flows, low prio)
  // up to `table_size` with the probe rule.
  std::vector<FlowMod> fill;
  const std::uint32_t src_ip = gen::TemplateConfig{}.src_ip.v;
  for (std::size_t i = 1; i < cfg_.table_size; ++i) {
    FlowMod fm;
    fm.match = OfMatch::exact_5tuple(
        src_ip, (172u << 24) | static_cast<std::uint32_t>(i),
        net::ipproto::kUdp, 2000, 2000);
    fm.priority = 0x4000;
    fm.actions = {ActionOutput{2}};
    fill.push_back(std::move(fm));
  }
  // Probe rule → the switch port in front of the current target.
  fill.push_back(
      probe_rule(static_cast<std::uint16_t>(target_osnt_port_ + 1)));
  ctx.install(std::move(fill), kTimerFilled);

  // Continuous probe flow from OSNT port 0 — started only once the whole
  // table is in hardware (see kTimerStartProbe).
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(kProbePps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;  // flow 0 is the probe rule's flow
  tc.flow_count = 1;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(128)));
}

void FlowModLatencyModule::send_redirect(OflopsContext& ctx) {
  // Flip the rule to the other capture port.
  const std::uint8_t new_port = target_osnt_port_ == 1 ? 2 : 1;
  target_osnt_port_ = new_port;
  t_send_ = ctx.now();
  awaiting_data_ = true;
  awaiting_ack_ = true;
  phase_ = Phase::kMeasure;
  ctx.install({probe_rule(static_cast<std::uint16_t>(new_port + 1))},
              kTimerRedirected);
}

void FlowModLatencyModule::on_capture(OflopsContext& ctx,
                                      const mon::CaptureRecord& rec) {
  if (phase_ != Phase::kMeasure || !awaiting_data_) return;
  if (rec.port != target_osnt_port_) return;
  const double t_rec_ns = rec.ts.to_nanos();
  const double t_send_ns = to_nanos(t_send_);
  if (t_rec_ns <= t_send_ns) return;  // stale frame from the old path
  awaiting_data_ = false;
  data_ms_.add((t_rec_ns - t_send_ns) * 1e-6);
  maybe_finish_round(ctx);
}

void FlowModLatencyModule::maybe_finish_round(OflopsContext& ctx) {
  // A round is complete only once BOTH planes have reported.
  if (awaiting_data_ || awaiting_ack_) return;
  ++round_;
  if (round_ >= cfg_.rounds) {
    phase_ = Phase::kDone;
    done_ = true;
    ctx.osnt().tx(0).stop();
    return;
  }
  ctx.timer_in(cfg_.settle, kTimerNextRound);
}

void FlowModLatencyModule::on_timer(OflopsContext& ctx,
                                    std::uint64_t timer_id) {
  if (done_) return;
  if (timer_id == kTimerFilled) {
    // Table populated at the agent; wait for its hardware commits to land
    // before generating load and measuring.
    phase_ = Phase::kWarmup;
    ctx.await_table(cfg_.table_size, kTimerStartProbe);
    return;
  }
  if (timer_id == kTimerRedirected) {
    awaiting_ack_ = false;
    ctrl_ms_.add(to_seconds(ctx.now() - t_send_) * 1e3);
    maybe_finish_round(ctx);
    return;
  }
  if (timer_id == kTimerStartProbe) {
    ctx.osnt().tx(0).start();
    ctx.timer_in(cfg_.settle, kTimerNextRound);
    return;
  }
  if (timer_id == kTimerNextRound) send_redirect(ctx);
}

Report FlowModLatencyModule::report() const {
  Report r;
  r.module = name();
  r.add("table_size", static_cast<double>(cfg_.table_size), "rules");
  r.add("rounds_completed", static_cast<double>(round_));
  r.add_distribution("control_plane_ms", ctrl_ms_);
  r.add_distribution("data_plane_ms", data_ms_);
  // The headline gap: data-plane install time vs barrier acknowledgement.
  SampleSet gap;
  const std::size_t n = std::min(ctrl_ms_.count(), data_ms_.count());
  for (std::size_t i = 0; i < n; ++i)
    gap.add(data_ms_.samples()[i] - ctrl_ms_.samples()[i]);
  r.add_distribution("data_minus_control_ms", gap);
  return r;
}

}  // namespace osnt::oflops
