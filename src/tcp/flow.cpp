#include "osnt/tcp/flow.hpp"

#include <string>

#include "osnt/common/random.hpp"
#include "osnt/mon/latency_probe.hpp"
#include "osnt/tcp/segment.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::tcp {

void FlowTelemetry::flush(const FlowStats& total) const {
  if (!telemetry::enabled() || total.segs_sent == 0) return;
  auto& reg = telemetry::registry();
  reg.counter("tcp.segs_sent").add(total.segs_sent);
  reg.counter("tcp.bytes_sent").add(total.bytes_sent);
  reg.counter("tcp.bytes_acked").add(total.bytes_acked);
  reg.counter("tcp.acks_received").add(total.acks_received);
  reg.counter("tcp.dup_acks").add(total.dup_acks);
  reg.counter("tcp.retransmits").add(total.retransmits);
  reg.counter("tcp.rto_fires").add(total.rto_fires);
  reg.counter("tcp.fast_retx").add(total.fast_retx);
  reg.counter("tcp.cwnd_reductions").add(total.cwnd_reductions);
  reg.counter("tcp.emit_rejects").add(total.emit_rejects);
  reg.histogram("tcp.cwnd_bytes").merge(cwnd_bytes);
  reg.histogram("tcp.srtt_ns").merge(srtt_ns);
  reg.histogram("tcp.delivery_rate_bps").merge(delivery_rate_bps);
  if (rld_detections > 0 || rld_releases > 0) {
    reg.counter("tcp.rld.detections").add(rld_detections);
    reg.counter("tcp.rld.releases").add(rld_releases);
    reg.histogram("tcp.rld.detected_rate_mbps").merge(rld_rate_mbps);
    reg.histogram("tcp.rld.time_to_detect_us").merge(rld_ttd_us);
  }
}

Flow::Flow(sim::Engine& eng, FlowConfig cfg, FlowTelemetry& shard,
           SegmentEmitter emit)
    : eng_(&eng),
      cfg_(std::move(cfg)),
      tel_(&shard),
      emit_(std::move(emit)),
      cc_(make_congestion_control(
          cfg_.cc, CcConfig{.mss = cfg_.mss})),
      rld_(cfg_.rate_limit_detector
               ? std::make_unique<RateLimitDetector>()
               : nullptr),
      rto_(cfg_.min_rto, cfg_.max_rto),
      isn_(static_cast<std::uint32_t>(derive_seed(cfg_.seed, 1))) {}

Flow::~Flow() {
  if (pace_timer_) eng_->cancel(pace_timer_);
  if (rto_timer_) eng_->cancel(rto_timer_);
}

void Flow::start() {
  delivered_time_ = eng_->now();
  note_cwnd(eng_->now());
  try_send();
}

std::int64_t Flow::unwrap_ack(std::uint32_t ack32) const {
  // The cumulative ACK is within ±2^31 of snd_una on any sane path, so a
  // signed 32-bit difference against snd_una's wire sequence unwraps it.
  const std::int32_t diff =
      static_cast<std::int32_t>(ack32 - seq32_of(snd_una_));
  return static_cast<std::int64_t>(snd_una_) + diff;
}

void Flow::on_ack(const net::TcpHeader& hdr, std::uint32_t peer_tsval,
                  std::uint32_t tsecr, Picos now) {
  ++stats_.acks_received;
  if (peer_tsval != 0) last_tsecr_seen_ = peer_tsval;
  const std::int64_t ack_abs = unwrap_ack(hdr.ack);

  if (ack_abs > static_cast<std::int64_t>(snd_una_)) {
    const auto ack_off = static_cast<std::uint64_t>(ack_abs);
    const std::uint64_t newly = ack_off - snd_una_;
    snd_una_ = ack_off;
    if (snd_nxt_ < snd_una_) {
      // After an RTO rolled snd_nxt back to snd_una (go-back-N), an ACK
      // for the original transmissions — or the receiver's below-window
      // re-ACK carrying the full rcv_nxt — can land beyond snd_nxt.
      // Without the clamp, snd_nxt - snd_una underflows: the window
      // check never opens, the RTO never re-arms, and the flow
      // deadlocks. All data below snd_una is delivered, so recovery is
      // over too.
      snd_nxt_ = snd_una_;
      in_recovery_ = false;
    }
    delivered_ += newly;
    delivered_time_ = now;
    stats_.bytes_acked += newly;
    dup_acks_ = 0;

    Picos rtt = 0;
    if (tsecr != 0) {
      rtt = static_cast<Picos>(
                static_cast<std::uint32_t>(tsval_at(now) - tsecr)) *
            kPicosPerNano;
      if (rtt > 0) {
        rto_.sample(rtt);
        // In-plane RTT probe: the identical sample stream the RTO
        // estimator consumes, binned by the flow's traffic class.
        if (cfg_.rtt_probe) {
          cfg_.rtt_probe->observe(
              static_cast<std::uint64_t>(rtt / kPicosPerNano), cfg_.dscp);
        }
      }
    }

    // Delivery-rate sample, anchored at the send of the newest segment
    // this ACK covers (BBR-style delivered-delta over elapsed time).
    bool round_start = false;
    double rate = 0.0;
    bool have_anchor = false;
    SegRec anchor{};
    while (!inflight_.empty() &&
           inflight_.front().offset + inflight_.front().len <= ack_off) {
      anchor = inflight_.front();
      have_anchor = true;
      inflight_.pop_front();
    }
    if (have_anchor) {
      if (anchor.delivered_at_send >= round_mark_) {
        round_start = true;  // a full packet-timed round elapsed
        round_mark_ = delivered_;
        ++round_count_;
      }
      if (now > anchor.delivered_time_at_send) {
        rate = static_cast<double>(delivered_ - anchor.delivered_at_send) *
               8.0 * static_cast<double>(kPicosPerSec) /
               static_cast<double>(now - anchor.delivered_time_at_send);
        last_rate_bps_ = rate;
        // Windowed max over the last 10 rounds (monotone queue).
        while (!rate_window_.empty() && rate_window_.back().bps <= rate) {
          rate_window_.pop_back();
        }
        rate_window_.push_back({round_count_, rate});
        while (!rate_window_.empty() &&
               rate_window_.front().round + 10 < round_count_) {
          rate_window_.pop_front();
        }
      }
    }

    const bool was_in_recovery = in_recovery_;
    if (in_recovery_) {
      if (ack_off >= recover_point_) {
        in_recovery_ = false;
      } else if (snd_nxt_ > snd_una_) {
        // NewReno-style partial ACK: the next hole is at snd_una — resend
        // one segment per partial ACK (go-back-N, one step at a time).
        const auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_));
        emit_segment(snd_una_, len, /*in_place=*/true);
      }
    }

    cc_->on_ack(AckEvent{.now = now,
                         .bytes_acked = newly,
                         .bytes_in_flight = snd_nxt_ - snd_una_,
                         .rtt = rtt,
                         .delivery_rate_bps = rate,
                         .round_start = round_start});
    // Rate-limit detection rides the same estimator state the controller
    // just consumed (recovery-tainted samples zeroed — one hole-filling
    // cumulative ACK aliases into a multi-Gb/s spike). A verdict change
    // — detection, release, or release-probe epoch boundary —
    // re-parameterizes the controller.
    if (rld_) {
      const auto dets = rld_->detections();
      const auto rels = rld_->releases();
      if (rld_->on_ack(now, was_in_recovery ? 0.0 : rate, rtt,
                       delivered_)) {
        cc_->adapt_to_policer(
            rld_->detected() ? rld_->detected_rate_bps() : 0.0,
            rld_->min_rtt());
        const bool fresh_detect = rld_->detections() != dets;
        const bool released = rld_->releases() != rels;
        if (fresh_detect) {
          ++tel_->rld_detections;
          tel_->rld_rate_mbps.record(
              static_cast<std::uint64_t>(rld_->verdict_rate_bps() / 1e6));
          tel_->rld_ttd_us.record(static_cast<std::uint64_t>(
              rld_->detect_time() / kPicosPerMicro));
        }
        if (released) ++tel_->rld_releases;
        if (trace_track_set_ && (fresh_detect || released)) {
          if (auto* tr = eng_->trace()) {
            tr->instant(trace_track_,
                        fresh_detect ? "rld_detect" : "rld_release", now);
          }
        }
      }
    }
    note_cwnd(now);

    // RFC 6298 (5.3): restart the retransmission timer on new data acked.
    if (rto_timer_) {
      eng_->cancel(rto_timer_);
      rto_timer_ = {};
    }
    try_send();
    return;
  }

  if (ack_abs == static_cast<std::int64_t>(snd_una_) &&
      snd_nxt_ > snd_una_) {
    ++stats_.dup_acks;
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      // Fast retransmit: resend the first unacked segment once and let
      // the controller halve (or conserve) the window.
      in_recovery_ = true;
      recover_point_ = snd_nxt_;
      ++stats_.fast_retx;
      if (rld_) rld_->on_loss();
      const std::uint64_t before = cc_->cwnd_bytes();
      cc_->on_loss(now, snd_nxt_ - snd_una_);
      if (cc_->cwnd_bytes() < before) ++stats_.cwnd_reductions;
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_));
      emit_segment(snd_una_, len, /*in_place=*/true);
      note_cwnd(now);
      if (trace_track_set_) {
        if (auto* tr = eng_->trace()) {
          tr->instant(trace_track_, "fast_retx", now);
        }
      }
      try_send();
    }
  }
}

void Flow::try_send() {
  const Picos now = eng_->now();
  const std::uint64_t wnd =
      std::min<std::uint64_t>(cc_->cwnd_bytes(), cfg_.rwnd_bytes);
  while (!done()) {
    const std::uint64_t remaining =
        cfg_.bytes_to_send == 0
            ? cfg_.mss
            : (cfg_.bytes_to_send > snd_nxt_ ? cfg_.bytes_to_send - snd_nxt_
                                             : 0);
    if (remaining == 0) break;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.mss, remaining));
    if (snd_nxt_ - snd_una_ + len > wnd) break;  // window closed

    const double pace = cc_->pacing_rate_bps();
    if (pace > 0.0 && now < pace_next_) {
      if (!pace_timer_) {
        const sim::Engine::CategoryScope cat(*eng_,
                                             sim::EventCategory::kTcp);
        // Bulk class: pacing gaps above the wheel tick (~65 ns) sit in
        // O(1) buckets; sub-tick gaps spill to the heap automatically.
        pace_timer_ = eng_->schedule_bulk_in(pace_next_ - now, [this] {
          pace_timer_ = {};
          try_send();
        });
      }
      break;
    }

    emit_segment(snd_nxt_, len, /*in_place=*/false);
    snd_nxt_ += len;
    if (snd_nxt_ > max_sent_) max_sent_ = snd_nxt_;
    if (pace > 0.0) {
      // The segment's whole line footprint: headers, FCS, preamble, IFG.
      const std::size_t line_len = kSegmentHeaderLen + len + net::kEthFcsLen +
                                   net::kEthPerFrameOverhead;
      const auto gap = static_cast<Picos>(
          static_cast<double>(line_len) * 8.0 *
          static_cast<double>(kPicosPerSec) / pace);
      pace_next_ = std::max(now, pace_next_) + gap;
    }
  }
  if (snd_nxt_ > snd_una_ && !rto_timer_) arm_rto();
}

void Flow::emit_segment(std::uint64_t offset, std::uint32_t len,
                        bool in_place) {
  const Picos now = eng_->now();
  ++stats_.segs_sent;
  stats_.bytes_sent += len;
  if (offset < max_sent_) ++stats_.retransmits;

  if (in_place) {
    // Fast-retransmit / partial-ack resend: refresh the existing record's
    // rate-sample anchors so a post-recovery sample is not computed
    // against the stale original send.
    if (!inflight_.empty() && inflight_.front().offset == offset) {
      SegRec& r = inflight_.front();
      r.sent_time = now;
      r.delivered_at_send = delivered_;
      r.delivered_time_at_send = delivered_time_;
    }
  } else {
    inflight_.push_back(SegRec{offset, len, now, delivered_,
                               delivered_time_ == 0 ? now : delivered_time_});
  }

  // Drop-early fast path: when the bottleneck buffer is already full the
  // frame would be written only to be tail-dropped at offer(). Skip the
  // write — the preflight records the drop exactly as a refused offer
  // would, and the sender-side accounting above is identical.
  if (preflight_ && !preflight_()) {
    ++stats_.emit_rejects;
    return;
  }

  net::Packet pkt = write_segment(
      {.src_mac = cfg_.src_mac,
       .dst_mac = cfg_.dst_mac,
       .src_ip = cfg_.src_ip,
       .dst_ip = cfg_.dst_ip,
       .src_port = cfg_.src_port,
       .dst_port = cfg_.dst_port,
       .seq = seq32_of(offset),
       .flags = net::TcpFlags::kAck | net::TcpFlags::kPsh,
       .dscp = cfg_.dscp,
       .tsval = tsval_at(now),
       .tsecr = last_tsecr_seen_},
      len);
  if (!emit_(std::move(pkt))) ++stats_.emit_rejects;
}

void Flow::arm_rto() {
  if (rto_timer_) {
    eng_->cancel(rto_timer_);
    rto_timer_ = {};
  }
  if (snd_nxt_ <= snd_una_) return;
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kTcp);
  // RTOs are the canonical bulk timer: one per flow, almost always
  // cancelled (by the next cumulative ACK) before firing — exactly the
  // schedule/cancel churn the wheel makes O(1).
  rto_timer_ = eng_->schedule_bulk_in(rto_.rto(), [this] {
    rto_timer_ = {};
    on_rto_fire();
  });
}

void Flow::on_rto_fire() {
  if (snd_nxt_ <= snd_una_) return;
  const Picos now = eng_->now();
  ++stats_.rto_fires;
  rto_.backoff();
  if (rld_) rld_->on_loss();
  cc_->on_rto(now);
  // An RTO collapses the window to the controller's floor by contract;
  // count the event even when decay already had cwnd sitting there.
  ++stats_.cwnd_reductions;

  // Go-back-N: everything past the cumulative ACK is presumed lost and
  // will be resent from snd_una as the (collapsed) window allows.
  snd_nxt_ = snd_una_;
  inflight_.clear();
  dup_acks_ = 0;
  in_recovery_ = false;
  pace_next_ = 0;
  note_cwnd(now);
  if (trace_track_set_) {
    if (auto* tr = eng_->trace()) tr->instant(trace_track_, "rto", now);
  }
  try_send();  // re-arms the (backed-off) timer
}

void Flow::note_cwnd(Picos now) {
  tel_->cwnd_bytes.record(cc_->cwnd_bytes());
  if (rto_.srtt() > 0) {
    tel_->srtt_ns.record(
        static_cast<std::uint64_t>(rto_.srtt() / kPicosPerNano));
  }
  if (last_rate_bps_ > 0.0) {
    tel_->delivery_rate_bps.record(
        static_cast<std::uint64_t>(last_rate_bps_));
  }
  if (auto* tr = eng_->trace()) {
    if (!trace_track_set_) {
      trace_track_ = tr->track("tcp/" + std::to_string(cfg_.flow_id));
      trace_track_set_ = true;
    }
    tr->counter(trace_track_, "cwnd_bytes", now, cc_->cwnd_bytes());
    if (rto_.srtt() > 0) {
      tr->counter(trace_track_, "srtt_ns", now,
                  static_cast<std::uint64_t>(rto_.srtt() / kPicosPerNano));
    }
  }
}

}  // namespace osnt::tcp
