#include "osnt/oflops/consistency.hpp"

#include <stdexcept>
#include <string>

#include "osnt/gen/template_gen.hpp"
#include "osnt/net/flow.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

namespace {
constexpr std::uint32_t kSrcIp = (10u << 24) | 1;              // 10.0.0.1
constexpr std::uint32_t kDstBase = (10u << 24) | (1 << 8) | 1; // 10.0.1.1
constexpr std::uint16_t kSportBase = 1024;
constexpr std::uint16_t kDport = 5001;
}  // namespace

ConsistencyModule::ConsistencyModule(Config cfg) : cfg_(cfg) {
  if (cfg_.rule_count == 0 || cfg_.rule_count > Config::kMaxRules) {
    throw std::invalid_argument(
        "consistency updates 1 to " + std::to_string(Config::kMaxRules) +
        " rules, got " + std::to_string(cfg_.rule_count));
  }
  first_on_new_ns_.assign(cfg_.rule_count, -1.0);
}

FlowMod ConsistencyModule::rule_for(std::size_t flow,
                                    std::uint16_t out_port) const {
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(
      kSrcIp, kDstBase + static_cast<std::uint32_t>(flow),
      net::ipproto::kUdp,
      static_cast<std::uint16_t>(kSportBase + flow), kDport);
  fm.priority = 0x9000;
  fm.actions = {ActionOutput{out_port}};
  return fm;
}

int ConsistencyModule::flow_of_record(const mon::CaptureRecord& rec) const {
  const auto tuple =
      net::extract_flow(ByteSpan{rec.data.data(), rec.data.size()});
  if (!tuple) return -1;
  const std::uint32_t off = tuple->dst_ip.v - kDstBase;
  if (off >= cfg_.rule_count) return -1;
  return static_cast<int>(off);
}

void ConsistencyModule::send_generation(OflopsContext& ctx,
                                        std::uint16_t out_port) {
  for (std::size_t i = 0; i < cfg_.rule_count; ++i)
    ctx.send(rule_for(i, out_port));
}

void ConsistencyModule::start(OflopsContext& ctx) {
  // Install the initial generation: all flows → switch port 2 (OSNT 1).
  send_generation(ctx, 2);
  install_barrier_ = ctx.send(BarrierRequest{});

  // Aggregate probe traffic across all flows.
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::gbps(cfg_.traffic_gbps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;
  tc.flow_count = static_cast<std::uint32_t>(cfg_.rule_count);
  tc.vary_dst_ip = true;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(256)));
}

void ConsistencyModule::on_of_message(OflopsContext& ctx,
                                      const openflow::Decoded& msg) {
  if (!std::holds_alternative<BarrierReply>(msg.msg)) return;
  if (phase_ == Phase::kInstall && msg.xid == install_barrier_) {
    // Every install flow_mod reached the agent; start the traffic once
    // they are in hardware too, so the burst does not queue behind them.
    phase_ = Phase::kWarmup;
    ctx.await_table(cfg_.rule_count, kTimerInstalled);
  }
}

void ConsistencyModule::on_timer(OflopsContext& ctx, std::uint64_t timer_id) {
  if (timer_id == kTimerInstalled && phase_ == Phase::kWarmup) {
    ctx.osnt().tx(0).start();
    ctx.timer_in(cfg_.warmup, kTimerBurst);
    return;
  }
  if (timer_id == kTimerBurst && phase_ == Phase::kWarmup) {
    // The update burst: redirect every flow → switch port 3 (OSNT 2).
    phase_ = Phase::kUpdating;
    t_burst_ = ctx.now();
    send_generation(ctx, 3);
    ctx.send(BarrierRequest{});
    return;
  }
  if (timer_id == kTimerFinish) {
    ctx.osnt().tx(0).stop();
    phase_ = Phase::kDone;
    done_ = true;
  }
}

void ConsistencyModule::on_channel_status(OflopsContext& ctx, bool up) {
  if (done_) return;
  if (!up) {
    ++disconnects_;
    return;
  }
  // Session restored. Any flow_mods or barriers in flight on the old
  // session were lost, so re-drive the generation the current phase
  // depends on. Re-sending is safe: each flow_mod replaces the entry
  // with the same match, so rules that did land are simply rewritten.
  if (phase_ == Phase::kInstall) {
    send_generation(ctx, 2);
    install_barrier_ = ctx.send(BarrierRequest{});
    rules_resent_ += cfg_.rule_count;
    return;
  }
  if (phase_ == Phase::kUpdating) {
    // Some update flow_mods may have died with the session; without this
    // re-drive, flows never switch and the module hangs to timeout. The
    // measured update window then genuinely includes the outage.
    send_generation(ctx, 3);
    ctx.send(BarrierRequest{});
    rules_resent_ += cfg_.rule_count;
  }
  // kWarmup (table wait or timer pending) and kDrain have nothing in
  // flight.
}

void ConsistencyModule::on_capture(OflopsContext& ctx,
                                   const mon::CaptureRecord& rec) {
  if (phase_ == Phase::kInstall) return;
  const int flow = flow_of_record(rec);
  if (flow < 0) return;

  if (phase_ == Phase::kWarmup) {
    ++pre_burst_packets_;
    return;
  }
  const double t_ns = rec.ts.to_nanos();
  const double burst_ns = to_nanos(t_burst_);
  if (rec.port == 1) {
    // Old path. After the burst these are the inconsistency: packets
    // forwarded by rules whose replacement was already requested.
    if (t_ns > burst_ns) ++stale_packets_;
    return;
  }
  if (rec.port != 2) return;
  ++new_packets_;
  if (first_on_new_ns_[static_cast<std::size_t>(flow)] < 0) {
    first_on_new_ns_[static_cast<std::size_t>(flow)] = t_ns;
    install_time_ms_.add((t_ns - burst_ns) * 1e-6);
    ++flows_switched_;
    if (flows_switched_ == cfg_.rule_count && phase_ == Phase::kUpdating) {
      phase_ = Phase::kDrain;
      ctx.timer_in(cfg_.drain, kTimerFinish);
    }
  }
}

Report ConsistencyModule::report() const {
  Report r;
  r.module = name();
  r.add("rules_updated", static_cast<double>(cfg_.rule_count));
  r.add("flows_switched", static_cast<double>(flows_switched_));
  r.add("stale_packets_after_burst", static_cast<double>(stale_packets_));
  r.add("packets_on_new_path", static_cast<double>(new_packets_));
  r.add("channel_disconnects", static_cast<double>(disconnects_));
  r.add("rules_resent", static_cast<double>(rules_resent_));
  if (install_time_ms_.count() >= 2) {
    r.add("update_window_ms",
          install_time_ms_.max() - install_time_ms_.min(), "ms");
  }
  r.add_distribution("rule_effective_ms", install_time_ms_);
  return r;
}

}  // namespace osnt::oflops
