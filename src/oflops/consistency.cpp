#include "osnt/oflops/consistency.hpp"

#include <stdexcept>
#include <string>

#include "osnt/gen/template_gen.hpp"
#include "osnt/net/flow.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

namespace {
/// The probe traffic: flow i sends from port 1024 + i to 10.0.1.1 + i.
gen::TemplateConfig probe_flows(std::size_t rule_count) {
  gen::TemplateConfig tc;
  tc.flow_count = static_cast<std::uint32_t>(rule_count);
  tc.vary_dst_ip = true;
  return tc;
}
}  // namespace

ConsistencyModule::ConsistencyModule(Config cfg) : cfg_(cfg) {
  if (cfg_.rule_count == 0 || cfg_.rule_count > Config::kMaxRules) {
    throw std::invalid_argument(
        "consistency updates 1 to " + std::to_string(Config::kMaxRules) +
        " rules, got " + std::to_string(cfg_.rule_count));
  }
  first_on_new_ns_.assign(cfg_.rule_count, -1.0);
}

std::vector<FlowMod> ConsistencyModule::generation(
    std::uint16_t out_port) const {
  const gen::TemplateConfig probe = probe_flows(cfg_.rule_count);
  std::vector<FlowMod> rules(cfg_.rule_count);
  for (std::uint32_t i = 0; i < rules.size(); ++i) {
    rules[i].match = OfMatch::exact_5tuple(probe.flow(i));
    rules[i].priority = 0x9000;
    rules[i].actions = {ActionOutput{out_port}};
  }
  return rules;
}

int ConsistencyModule::flow_of_record(const mon::CaptureRecord& rec) const {
  const auto tuple =
      net::extract_flow(ByteSpan{rec.data.data(), rec.data.size()});
  if (!tuple) return -1;
  const std::uint32_t off =
      tuple->dst_ip.v - probe_flows(cfg_.rule_count).flow(0).dst_ip.v;
  if (off >= cfg_.rule_count) return -1;
  return static_cast<int>(off);
}

void ConsistencyModule::start(OflopsContext& ctx) {
  // Install the initial generation: all flows → switch port 2 (OSNT 1).
  ctx.install(generation(2), kTimerAcked);

  // Aggregate probe traffic across all flows.
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::gbps(cfg_.traffic_gbps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  tx.set_source(std::make_unique<gen::TemplateSource>(
      probe_flows(cfg_.rule_count), std::make_unique<gen::FixedSize>(256)));
}

void ConsistencyModule::on_timer(OflopsContext& ctx, std::uint64_t timer_id) {
  if (timer_id == kTimerAcked) {
    // Every install flow_mod reached the agent; start the traffic once
    // they are in hardware too, so the burst does not queue behind them.
    phase_ = Phase::kWarmup;
    ctx.await_table(cfg_.rule_count, kTimerInstalled);
    return;
  }
  if (timer_id == kTimerInstalled && phase_ == Phase::kWarmup) {
    ctx.osnt().tx(0).start();
    ctx.timer_in(cfg_.warmup, kTimerBurst);
    return;
  }
  if (timer_id == kTimerBurst && phase_ == Phase::kWarmup) {
    // The update burst: redirect every flow → switch port 3 (OSNT 2).
    phase_ = Phase::kUpdating;
    t_burst_ = ctx.now();
    ctx.install(generation(3), kTimerBurstAcked);
    return;
  }
  if (timer_id == kTimerFinish) {
    ctx.osnt().tx(0).stop();
    phase_ = Phase::kDone;
    done_ = true;
  }
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
  if (install_time_ms_.count() >= 2) {
    r.add("update_window_ms",
          install_time_ms_.max() - install_time_ms_.min(), "ms");
  }
  r.add_distribution("rule_effective_ms", install_time_ms_);
  return r;
}

}  // namespace osnt::oflops
