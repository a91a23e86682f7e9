#include "osnt/oflops/flowmod_latency.hpp"

#include "osnt/core/measure.hpp"
#include "osnt/gen/template_gen.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

namespace {
constexpr double kProbePps = 100000.0;  ///< probe flow rate
// The probe flow matches TemplateSource defaults with flow_count = 1.
constexpr std::uint32_t kProbeSrcIp = (10u << 24) | 1;             // 10.0.0.1
constexpr std::uint32_t kProbeDstIp = (10u << 24) | (1 << 8) | 1;  // 10.0.1.1
constexpr std::uint16_t kProbeSport = 1024;
constexpr std::uint16_t kProbeDport = 5001;
}  // namespace

FlowMod FlowModLatencyModule::probe_rule(std::uint16_t out_port) const {
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(kProbeSrcIp, kProbeDstIp,
                                   net::ipproto::kUdp, kProbeSport,
                                   kProbeDport);
  fm.priority = 0x9000;
  fm.actions = {ActionOutput{out_port}};
  return fm;
}

void FlowModLatencyModule::install_table(OflopsContext& ctx) {
  // Pre-populate the table with filler rules (distinct flows, low prio)
  // up to `table_size` with the probe rule. Flow_mods replace same-match
  // entries, so a reconnect re-drive of this whole block is idempotent on
  // the switch.
  for (std::size_t i = 1; i < cfg_.table_size; ++i) {
    FlowMod fm;
    fm.match = OfMatch::exact_5tuple(
        kProbeSrcIp, (172u << 24) | static_cast<std::uint32_t>(i),
        net::ipproto::kUdp, 2000, 2000);
    fm.priority = 0x4000;
    fm.actions = {ActionOutput{2}};
    ctx.send(fm);
  }
  // Probe rule → the switch port in front of the current target.
  ctx.send(probe_rule(static_cast<std::uint16_t>(target_osnt_port_ + 1)));
  barrier_xid_ = ctx.send(BarrierRequest{});
  awaiting_barrier_ = true;
}

void FlowModLatencyModule::start(OflopsContext& ctx) {
  target_osnt_port_ = 1;  // initial probe rule → switch port 2 (OSNT 1)
  phase_ = Phase::kFill;
  install_table(ctx);

  // Continuous probe flow from OSNT port 0 — started only once the whole
  // table is in hardware (see kTimerStartProbe).
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(kProbePps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;  // defaults produce exactly the probe 5-tuple
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
  ctx.send(probe_rule(static_cast<std::uint16_t>(new_port + 1)));
  barrier_xid_ = ctx.send(BarrierRequest{});
  awaiting_barrier_ = true;
  phase_ = Phase::kMeasure;
}

void FlowModLatencyModule::on_of_message(OflopsContext& ctx,
                                         const openflow::Decoded& msg) {
  if (!std::holds_alternative<BarrierReply>(msg.msg)) return;
  if (!awaiting_barrier_ || msg.xid != barrier_xid_) return;
  awaiting_barrier_ = false;

  if (phase_ == Phase::kFill) {
    // Table populated at the agent; wait for its hardware commits to land
    // before generating load and measuring.
    phase_ = Phase::kWarmup;
    ctx.await_table(cfg_.table_size, kTimerStartProbe);
    return;
  }
  if (phase_ == Phase::kMeasure) {
    ctrl_ms_.add(to_seconds(ctx.now() - t_send_) * 1e3);
    maybe_finish_round(ctx);
  }
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
  if (awaiting_data_ || awaiting_barrier_) return;
  ++round_;
  if (round_ >= cfg_.rounds) {
    phase_ = Phase::kDone;
    done_ = true;
    ctx.osnt().tx(0).stop();
    return;
  }
  ctx.timer_in(cfg_.settle, kTimerNextRound);
}

void FlowModLatencyModule::on_channel_status(OflopsContext& ctx, bool up) {
  if (done_) return;
  if (!up) {
    ++disconnects_;
    return;
  }
  // Session restored. Anything unacknowledged on the old session —
  // flow_mods, the barrier we were waiting on — died with it, so re-drive
  // the current phase's control-plane state. Measurements taken across
  // the outage stay in the distributions (they genuinely include it);
  // the report flags how many rounds were affected.
  if (phase_ == Phase::kFill) {
    install_table(ctx);
    return;
  }
  if (phase_ == Phase::kMeasure && awaiting_barrier_) {
    ++degraded_rounds_;
    ctx.send(probe_rule(static_cast<std::uint16_t>(target_osnt_port_ + 1)));
    barrier_xid_ = ctx.send(BarrierRequest{});
  }
  // kWarmup (table wait or timer pending) and a measure round whose
  // barrier was already acknowledged have nothing in flight to recover.
}

void FlowModLatencyModule::on_timer(OflopsContext& ctx,
                                    std::uint64_t timer_id) {
  if (done_) return;
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
  r.add("channel_disconnects", static_cast<double>(disconnects_));
  r.add("degraded_rounds", static_cast<double>(degraded_rounds_));
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
