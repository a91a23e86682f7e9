#include "osnt/gen/tx_pipeline.hpp"

#include <stdexcept>

#include "osnt/common/log.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::gen {

TxPipeline::TxPipeline(sim::Engine& eng, hw::TxMac& mac,
                       tstamp::DisciplinedClock& clock, TxConfig cfg)
    : eng_(&eng), mac_(&mac), clock_(&clock), cfg_(cfg),
      rate_(cfg.rate), gap_model_(std::make_unique<ConstantGap>()),
      rng_(cfg.seed) {}

TxPipeline::~TxPipeline() {
  if (!telemetry::enabled() || scheduled_ == 0) return;
  auto& reg = telemetry::registry();
  reg.counter("gen.tx.frames_scheduled").add(scheduled_);
  reg.counter("gen.tx.frames_sent").add(frames_);
  reg.counter("gen.tx.mac_rejects").add(mac_rejects_);
  reg.counter("gen.tx.wire_bytes").add(bytes_);
  reg.histogram("gen.tx.frame_bytes").merge(frame_bytes_);
}

void TxPipeline::start() {
  if (!source_) throw std::logic_error("TxPipeline: no source set");
  if (running_) return;
  running_ = true;
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kGen);
  pending_ = eng_->schedule_in(0, [this] { send_one(); });
}

void TxPipeline::stop() {
  running_ = false;
  if (pending_) {
    eng_->cancel(pending_);
    pending_ = {};
  }
}

void TxPipeline::kick() {
  if (!running_ || pending_) return;
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kGen);
  pending_ = eng_->schedule_in(0, [this] { send_one(); });
}

void TxPipeline::send_one() {
  pending_ = {};
  if (!running_) return;
  auto tp = source_->next();
  if (!tp) {
    // A blocked source is dry, not done: park with no pull pending and
    // wait for kick(). The pacing gap of the previous frame has already
    // elapsed (this pull ran at the paced slot), so an immediate resume
    // cannot compress inter-departure times below the configured rate.
    if (source_->blocked()) return;
    running_ = false;
    return;
  }
  net::Packet pkt = std::move(tp->pkt);
  const std::size_t line_len = pkt.line_len();

  // TX timestamp taken immediately before the MAC, as in the hardware.
  const tstamp::Timestamp ts = clock_->now(eng_->now());
  if (cfg_.embed_timestamp) {
    if (!tstamp::embed_timestamp(pkt.mut_bytes(), cfg_.embed_offset,
                                 {ts, seq_})) {
      OSNT_WARN("TxPipeline: frame of %zu B too short to embed at offset %zu",
                pkt.size(), cfg_.embed_offset);
    }
  }
  ++seq_;

  pkt.tx_truth = eng_->now();
  ++scheduled_;
  const auto start = mac_->transmit(std::move(pkt));
  const Picos air = net::serialization_time(line_len, rate_.link_gbps());
  if (start) {
    ++frames_;
    bytes_ += line_len;  // line occupancy incl. framing overhead
    if (first_dep_ < 0) first_dep_ = *start;
    last_dep_ = *start;
    // Frame incl. FCS, without preamble/IFG: matches TrafficSpec::frame_size.
    frame_bytes_.record(line_len - net::kEthPerFrameOverhead);
    if (auto* tr = eng_->trace()) {
      if (!trace_track_set_) {
        trace_track_ = tr->track("gen.tx");
        trace_track_set_ = true;
      }
      tr->complete(trace_track_, "frame", *start, air);
    }
  } else {
    ++mac_rejects_;
  }

  // Pace the next departure start-to-start from the *scheduled* slot, not
  // from the (possibly pushed-back) MAC grant, so requested inter-departure
  // statistics stay exact when the MAC is keeping up.
  Picos interval;
  if (tp->gap_hint) {
    interval = std::max(*tp->gap_hint, air);
  } else {
    const Picos mean = rate_.departure_interval(line_len);
    interval = gap_model_->sample(rng_, mean, air);
  }
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kGen);
  pending_ = eng_->schedule_in(interval, [this] { send_one(); });
}

double TxPipeline::achieved_gbps() const noexcept {
  if (frames_ < 2 || last_dep_ <= first_dep_) return 0.0;
  // Window closes when the last frame finishes its slot; approximate by
  // the mean per-frame occupancy.
  const double span = static_cast<double>(last_dep_ - first_dep_) *
                      static_cast<double>(frames_) /
                      static_cast<double>(frames_ - 1);
  return static_cast<double>(bytes_) * 8.0 * 1000.0 / span;
}

}  // namespace osnt::gen
