#include "osnt/mon/rx_pipeline.hpp"

#include "osnt/mon/capture.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::mon {

RxPipeline::~RxPipeline() {
  if (!telemetry::enabled() || seen_ == 0) return;
  auto& reg = telemetry::registry();
  reg.counter("mon.rx.frames_seen").add(seen_);
  reg.counter("mon.rx.captured").add(captured_);
  reg.counter("mon.rx.filter_drops").add(filtered_);
  reg.counter("mon.rx.dma_drops").add(dma_drops_);
  reg.counter("mon.rx.probe_hits").add(probe_seen_);
  reg.histogram("mon.rx.latency_ns").merge(latency_ns_);
  rtt_probe_.flush("mon.rx.");
}

void RxPipeline::arm_trigger(FilterRule rule, std::uint64_t window) {
  trigger_rule_ = rule;
  trigger_remaining_ = window;
  trigger_state_ = TriggerState::kArmed;
}

RxPipeline::RxPipeline(sim::Engine& eng, hw::RxMac& mac,
                       tstamp::DisciplinedClock& clock, hw::DmaEngine& dma,
                       Config cfg)
    : eng_(&eng), clock_(&clock), dma_(&dma), cfg_(cfg), cutter_(cfg.cutter) {
  mac.set_handler([this](net::Packet pkt, Picos first_bit, Picos last_bit) {
    on_frame(std::move(pkt), first_bit, last_bit);
  });
}

void RxPipeline::on_frame(net::Packet pkt, Picos first_bit, Picos last_bit) {
  ++seen_;
  // Timestamp on MAC receipt (first bit) — before any queueing, which is
  // what keeps timestamp noise out of OSNT measurements.
  const tstamp::Timestamp ts = clock_->now(first_bit);

  // Ground-truth one-way latency in sim time (frames whose tx_truth was
  // never stamped by a generator carry the -1 default and are skipped).
  if (pkt.tx_truth >= 0 && first_bit >= pkt.tx_truth) {
    latency_ns_.record(
        static_cast<std::uint64_t>((first_bit - pkt.tx_truth) / kPicosPerNano));
  }
  if (auto* tr = eng_->trace()) {
    if (!trace_track_set_) {
      trace_track_ = tr->track("mon.rx");
      trace_track_set_ = true;
    }
    tr->complete(trace_track_, "frame", first_bit,
                 last_bit > first_bit ? last_bit - first_bit : 0);
  }

  auto parsed = net::parse_packet(pkt.bytes());
  if (!parsed) return;  // runt below L2 header; MAC counters caught it
  stats_.record(*parsed, pkt.wire_len(), eng_->now());
  if (probe_ && probe_->matches(*parsed)) ++probe_seen_;
  if (tap_) tap_(*parsed, pkt, first_bit);

  // In-plane RTT probe: the same embedded-stamp-vs-RX-stamp delta that
  // HostCapture::latency_ns computes for DMA survivors, taken here for
  // *every* frame — ahead of the trigger/filter/DMA stages, so capture
  // loss cannot bias the distribution. Unstamped frames decode to deltas
  // outside the plausibility window and are skipped.
  if (cfg_.rtt_probe) {
    if (const auto st =
            tstamp::extract_timestamp(pkt.bytes(), cfg_.probe_embed_offset)) {
      const double d = tstamp::delta_nanos(ts, st->ts);
      if (d >= 0.0 && d < cfg_.probe_window_ns) {
        const std::uint8_t cls =
            parsed->l3 == net::L3Kind::kIpv4 ? parsed->ipv4.dscp : 0;
        rtt_probe_.observe(static_cast<std::uint64_t>(d), cls);
      }
    }
  }

  if (!cfg_.capture_enabled) return;

  // Trigger gate (before the capture filter): swallow everything until
  // the trigger matches, then pass a bounded window through.
  if (trigger_state_ == TriggerState::kArmed) {
    if (!trigger_rule_.matches(*parsed)) return;
    trigger_state_ = TriggerState::kFired;
  }
  if (trigger_state_ == TriggerState::kFired) {
    if (trigger_remaining_ == 0) {
      trigger_state_ = TriggerState::kDone;
      return;
    }
    --trigger_remaining_;
  } else if (trigger_state_ == TriggerState::kDone) {
    return;
  }

  const auto verdict = filters_.classify(*parsed);
  if (!verdict.capture) {
    ++filtered_;
    return;
  }

  // Ask the ring before cutting: a frame it cannot take is counted as a
  // ring-full drop without being copied or hashed.
  if (!dma_->admit()) {
    ++dma_drops_;
    return;
  }
  CutResult cut = cutter_.process(pkt.bytes());
  CaptureRecord rec;
  rec.data = std::move(cut.data);
  rec.ts = ts;
  rec.orig_len = cut.orig_len;
  rec.hash = cut.hash;
  rec.port = cfg_.port_id;
  dma_->enqueue(std::move(rec).to_dma());  // admitted above
  ++captured_;
}

}  // namespace osnt::mon
