#include "osnt/oflops/queue_delay.hpp"

#include "osnt/gen/template_gen.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

void QueueDelayModule::start(OflopsContext& ctx) {
  results_.resize(cfg_.queue_ids.size());
  start_queue_run(ctx);
}

void QueueDelayModule::start_queue_run(OflopsContext& ctx) {
  // Route the probe flow through the queue under test on switch port 2.
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(gen::TemplateConfig{}.flow(0));
  fm.priority = 0x9000;
  fm.actions = {ActionEnqueue{2, cfg_.queue_ids[current_]}};
  ctx.install({fm}, kTimerInstalled);
}

void QueueDelayModule::on_timer(OflopsContext& ctx, std::uint64_t timer_id) {
  if (timer_id == kTimerInstalled) {
    // Rule is in (plus commit; give it room), then offer the burst.
    ctx.timer_in(100 * kPicosPerMilli, kTimerSettled);
    return;
  }
  if (timer_id != kTimerSettled) return;
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::gbps(cfg_.offered_gbps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;
  tc.count = cfg_.frames_per_queue;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(cfg_.frame_size)));
  tx.start();
}

void QueueDelayModule::on_capture(OflopsContext& ctx,
                                  const mon::CaptureRecord& rec) {
  if (rec.port != 1 || done_) return;
  const auto stamp = tstamp::extract_timestamp(
      ByteSpan{rec.data.data(), rec.data.size()}, tstamp::kDefaultEmbedOffset);
  if (!stamp) return;
  PerQueue& pq = results_[current_];
  if (pq.frames == 0) pq.first_rx = rec.ts;
  pq.last_rx = rec.ts;
  ++pq.frames;
  pq.latency_us.add(tstamp::delta_nanos(rec.ts, stamp->ts) * 1e-3);
  if (pq.frames >= cfg_.frames_per_queue) {
    ++current_;
    if (current_ >= cfg_.queue_ids.size()) {
      done_ = true;
      return;
    }
    start_queue_run(ctx);
  }
}

Report QueueDelayModule::report() const {
  Report r;
  r.module = name();
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const PerQueue& pq = results_[i];
    std::string tag = "q";
    tag += std::to_string(cfg_.queue_ids[i]);
    if (pq.frames >= 2) {
      const double span_s =
          tstamp::delta_nanos(pq.last_rx, pq.first_rx) * 1e-9;
      const double gbps =
          static_cast<double>(pq.frames - 1) *
          static_cast<double>(cfg_.frame_size + net::kEthPerFrameOverhead) *
          8.0 / span_s / 1e9;
      r.add(tag + "_achieved_gbps", gbps, "Gb/s");
    }
    r.add_distribution(tag + "_latency_us", pq.latency_us);
  }
  return r;
}

}  // namespace osnt::oflops
