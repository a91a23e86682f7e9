#include "osnt/tcp/workload.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "osnt/common/random.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/tcp_options.hpp"
#include "osnt/tcp/segment.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::tcp {
namespace {

/// tsval/tsecr of the frame's timestamps option ({0,0} when absent).
std::pair<std::uint32_t, std::uint32_t> frame_timestamps(
    const net::ParsedPacket& p, const net::Packet& pkt) {
  const std::size_t hdr = p.tcp.header_len();
  if (hdr <= net::TcpHeader::kMinSize) return {0, 0};
  const std::size_t opt_off = p.l4_offset + net::TcpHeader::kMinSize;
  if (opt_off + (hdr - net::TcpHeader::kMinSize) > pkt.size()) return {0, 0};
  const auto ts = net::tcp_timestamps_of(
      pkt.bytes().subspan(opt_off, hdr - net::TcpHeader::kMinSize));
  return ts ? *ts : std::pair<std::uint32_t, std::uint32_t>{0, 0};
}

/// Cumulatively ACKed bytes over `window`, in bits/s.
double goodput_of(std::uint64_t bytes_acked, Picos window) {
  if (window <= 0) return 0.0;
  return static_cast<double>(bytes_acked) * 8.0 *
         static_cast<double>(kPicosPerSec) / static_cast<double>(window);
}

}  // namespace

ClosedLoopWorkload::ClosedLoopWorkload(sim::Engine& eng,
                                       core::OsntDevice& dev,
                                       WorkloadConfig cfg)
    : eng_(&eng), dev_(&dev), cfg_(std::move(cfg)) {
  if (cfg_.flows == 0) throw std::invalid_argument("tcp: flows must be > 0");
  if (cfg_.flows > kMaxFlows) {
    throw std::invalid_argument(
        "tcp: flows exceeds the addressing scheme's capacity (" +
        std::to_string(kMaxFlows) + ")");
  }

  gen::TxConfig txcfg;
  txcfg.rate = cfg_.bottleneck_gbps > 0.0
                   ? gen::RateSpec::gbps(cfg_.bottleneck_gbps)
                   : gen::RateSpec::line_rate(1.0);
  // Timestamp embedding would overwrite TCP header bytes at offset 42;
  // TCP RTTs come from the timestamps option instead.
  txcfg.embed_timestamp = false;
  txcfg.seed = derive_seed(cfg_.seed, 0xBEEF);
  gen::TxPipeline& txp = dev_->configure_tx(kTxPort, txcfg);
  auto src = std::make_unique<gen::ClosedLoopSource>(cfg_.queue_segments);
  source_ = src.get();
  src->set_kick([&txp] { txp.kick(); });
  txp.set_source(std::move(src));

  // The receivers are monitor taps; the DMA capture path stays off.
  dev_->rx(kTxPort).set_capture_enabled(false);
  dev_->rx(kRxPort).set_capture_enabled(false);

  flows_ = std::vector<std::optional<Flow>>(cfg_.flows);
  recv_hot_.resize(cfg_.flows);
  recv_cold_.resize(cfg_.flows);
  for (std::size_t i = 0; i < cfg_.flows; ++i) {
    FlowConfig fc;
    fc.flow_id = static_cast<std::uint32_t>(i);
    fc.src_mac = net::MacAddr::from_index(0x0A000000u + i);
    fc.dst_mac = net::MacAddr::from_index(0x0B000000u + i);
    fc.src_ip = sender_ip_of(i);
    fc.dst_ip = receiver_ip_of(i);
    fc.src_port = sender_port_of(i);
    fc.dst_port = receiver_port_of(i);
    fc.mss = cfg_.mss;
    fc.bytes_to_send = cfg_.bytes_per_flow;
    fc.rwnd_bytes = cfg_.rwnd_bytes;
    fc.seed = derive_seed(cfg_.seed, i + 1);
    fc.cc = cfg_.cc;
    fc.min_rto = cfg_.min_rto;
    fc.max_rto = cfg_.max_rto;
    // Round-robin traffic classes across flows; every segment carries
    // the class in its DSCP bits so in-plane monitor probes can bin it,
    // and the flow's RTT samples land in the shared probe's class bin.
    fc.dscp = static_cast<std::uint8_t>(i & mon::LatencyProbe::kClassMask);
    fc.rtt_probe = &rtt_probe_;
    fc.rate_limit_detector = cfg_.rate_limit_detector;
    Flow& f =
        flows_[i].emplace(*eng_, fc, telemetry_, [this](net::Packet&& pkt) {
          return source_->offer(std::move(pkt));
        });
    // Drop-early admission probe: under congestion (the common case at
    // 10k+ flows sharing one bottleneck buffer) senders skip serializing
    // frames the queue would tail-drop anyway; the probe records the
    // drop so queue_drops telemetry is identical to built-then-dropped.
    f.set_emit_preflight([this] {
      if (!source_->full()) return true;
      source_->note_tail_drop();
      return false;
    });
    recv_hot_[i].isn = f.isn();
  }

  dev_->rx(kRxPort).set_tap(
      [this](const net::ParsedPacket& p, const net::Packet& pkt,
             Picos first_bit) { on_data_frame(p, pkt, first_bit); });
  dev_->rx(kTxPort).set_tap(
      [this](const net::ParsedPacket& p, const net::Packet& pkt,
             Picos first_bit) { on_ack_frame(p, pkt, first_bit); });
}

ClosedLoopWorkload::~ClosedLoopWorkload() {
  for (ReceiverHot& st : recv_hot_) {
    if (st.delack_timer) {
      eng_->cancel(st.delack_timer);  // O(1) wheel unlink when routed there
      st.delack_timer = {};
    }
  }
  dev_->rx(kRxPort).set_tap(nullptr);
  dev_->rx(kTxPort).set_tap(nullptr);

  // One flush for the whole workload, once every flow (and its timers)
  // is gone, destroyed in flow-index order.
  const FlowStats total = total_stats();
  for (std::optional<Flow>& f : flows_) f.reset();
  telemetry_.flush(total);
  const std::uint64_t acks_sent = total_acks_sent();
  if (telemetry::enabled() && acks_sent + source_->offered() > 0) {
    auto& reg = telemetry::registry();
    reg.counter("tcp.acks_sent").add(acks_sent);
    reg.counter("tcp.ooo_segs").add(total_ooo_segs());
    reg.counter("tcp.queue_drops").add(source_->drops());
    reg.counter("tcp.delack.cancels_saved").add(delack_cancels_saved_);
    rtt_probe_.flush("tcp.");
  }
}

void ClosedLoopWorkload::start() {
  dev_->tx(kTxPort).start();
  for (std::optional<Flow>& f : flows_) f->start();
}

void ClosedLoopWorkload::on_data_frame(const net::ParsedPacket& p,
                                       const net::Packet& pkt,
                                       Picos first_bit) {
  if (p.l4 != net::L4Kind::kTcp || p.l3 != net::L3Kind::kIpv4) return;
  const std::size_t idx = flow_index_of_data(p.ipv4.dst, p.tcp.dst_port);
  if (idx >= recv_hot_.size()) return;
  ReceiverHot& st = recv_hot_[idx];

  const std::size_t l3_len = p.ipv4.total_length;
  const std::size_t hdrs = p.ipv4.header_len() + p.tcp.header_len();
  if (l3_len <= hdrs) return;  // no payload (stray pure ACK)
  const std::uint64_t len = l3_len - hdrs;

  const auto [tsval, tsecr] = frame_timestamps(p, pkt);
  (void)tsecr;  // the data direction's echo is unused by the receiver

  // Unwrap the 32-bit wire sequence against the reassembly point.
  const auto diff = static_cast<std::int32_t>(
      p.tcp.seq - (st.isn + static_cast<std::uint32_t>(st.rcv_nxt)));
  const std::int64_t seq_abs = static_cast<std::int64_t>(st.rcv_nxt) + diff;
  if (seq_abs < 0) return;
  const auto seq = static_cast<std::uint64_t>(seq_abs);
  const std::uint64_t seq_end = seq + len;

  if (seq <= st.rcv_nxt && seq_end > st.rcv_nxt) {
    // In-order (or overlapping) advance; absorb any now-contiguous
    // out-of-order intervals. The ooo set lives in the cold half and is
    // only consulted while a loss episode is open.
    st.rcv_nxt = seq_end;
    st.bytes_in_order += len;
    if (tsval != 0) st.last_tsval = tsval;
    ReceiverCold& cold = recv_cold_[idx];
    if (!cold.ooo.empty()) {
      for (auto o = cold.ooo.begin();
           o != cold.ooo.end() && o->first <= st.rcv_nxt;) {
        st.rcv_nxt = std::max(st.rcv_nxt, o->second);
        o = cold.ooo.erase(o);
      }
    }
    ++st.pending_ack_segs;
    if (st.pending_ack_segs >= 2) {  // RFC 1122: ACK every 2nd segment
      send_ack(idx, first_bit);
    } else {
      schedule_delack(idx);
    }
    return;
  }

  ReceiverCold& cold = recv_cold_[idx];
  if (seq > st.rcv_nxt) {
    // Hole: stash the interval and send an immediate duplicate ACK so
    // the sender's dup-ACK counter can reach the fast-retransmit
    // threshold.
    ++cold.ooo_segs;
    auto [o, inserted] = cold.ooo.emplace(seq, seq_end);
    if (!inserted) o->second = std::max(o->second, seq_end);
    send_ack(idx, first_bit);
    return;
  }

  // Entirely below the window: a spurious (go-back-N) retransmit of data
  // already received. Re-ACK immediately so the sender advances. Per
  // RFC 7323 the retransmit's tsval becomes TS.Recent (SEG.SEQ ≤
  // Last.ACK.sent), so the echoed TSecr dates from this arrival — an
  // echo of the pre-outage tsval would inflate the sender's RTT sample
  // by the whole loss episode and blow SRTT/RTO toward max_rto.
  ++cold.below_window_segs;
  if (tsval != 0) st.last_tsval = tsval;
  send_ack(idx, first_bit);
}

void ClosedLoopWorkload::send_ack(std::size_t idx, Picos now) {
  ReceiverHot& st = recv_hot_[idx];
  st.pending_ack_segs = 0;
  // Lazy delayed-ACK discipline: an armed timer is left armed. It fires
  // with pending_ack_segs == 0 and re-arms nothing — one no-op event
  // instead of a cancel + re-arm pair per ACKed segment. (The timer can
  // also fire "early" relative to the newest segment; that only makes an
  // ACK less delayed, which RFC 1122 always allows.)
  if (st.delack_timer) ++delack_cancels_saved_;

  const FlowConfig& fc = flows_[idx]->config();
  net::Packet ack = write_segment(
      {.src_mac = fc.dst_mac,
       .dst_mac = fc.src_mac,
       .src_ip = fc.dst_ip,
       .dst_ip = fc.src_ip,
       .src_port = fc.dst_port,
       .dst_port = fc.src_port,
       .ack = st.isn + static_cast<std::uint32_t>(st.rcv_nxt),
       .flags = net::TcpFlags::kAck,
       .dscp = fc.dscp,
       .tsval = tsval_at(now),
       .tsecr = st.last_tsval},
      /*len=*/0);

  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kTcp);
  (void)dev_->port(kRxPort).tx().transmit(std::move(ack));
  ++st.acks_sent;
}

void ClosedLoopWorkload::schedule_delack(std::size_t idx) {
  ReceiverHot& st = recv_hot_[idx];
  if (st.delack_timer) return;  // one armed timer per flow, ever
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kTcp);
  st.delack_timer =
      eng_->schedule_bulk_in(kDelayedAckTimeout, [this, idx] {
        ReceiverHot& s = recv_hot_[idx];
        s.delack_timer = {};
        if (s.pending_ack_segs > 0) send_ack(idx, eng_->now());
      });
}

void ClosedLoopWorkload::on_ack_frame(const net::ParsedPacket& p,
                                      const net::Packet& pkt,
                                      Picos first_bit) {
  if (p.l4 != net::L4Kind::kTcp || p.l3 != net::L3Kind::kIpv4) return;
  if ((p.tcp.flags & net::TcpFlags::kAck) == 0) return;
  const std::size_t idx = flow_index_of_ack(p.ipv4.dst, p.tcp.dst_port);
  if (idx >= flows_.size()) return;
  const auto [tsval, tsecr] = frame_timestamps(p, pkt);
  flows_[idx]->on_ack(p.tcp, tsval, tsecr, first_bit);
}

FlowStats ClosedLoopWorkload::total_stats() const {
  FlowStats v;
  for (const std::optional<Flow>& f : flows_) v += f->stats();
  return v;
}
std::uint64_t ClosedLoopWorkload::total_acks_sent() const {
  std::uint64_t v = 0;
  for (const auto& r : recv_hot_) v += r.acks_sent;
  return v;
}
std::uint64_t ClosedLoopWorkload::total_ooo_segs() const {
  std::uint64_t v = 0;
  for (const auto& r : recv_cold_) v += r.ooo_segs;
  return v;
}

double ClosedLoopWorkload::goodput_bps(Picos window) const {
  return goodput_of(total_bytes_acked(), window);
}

TcpTrialReport ClosedLoopWorkload::report(Picos window) const {
  // One walk over the flows, in index order, so every sum is the one the
  // aggregate accessors compute.
  FlowStats total;
  TcpTrialReport r;
  double rld_rate_sum = 0.0;
  std::size_t rld_detected = 0;
  Picos rld_time_sum = 0;
  std::size_t rld_detecting = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = *flows_[i];
    total += f.stats();
    const double rate = f.delivery_rate_bps();
    if (i == 0 || rate < r.min_flow_rate_bps) r.min_flow_rate_bps = rate;
    if (i == 0 || rate > r.max_flow_rate_bps) r.max_flow_rate_bps = rate;
    if (const RateLimitDetector* d = f.rate_limit_detector()) {
      r.rld_detections += d->detections();
      if (d->detected()) {
        rld_rate_sum += d->detected_rate_bps();
        ++rld_detected;
      }
      if (d->detections() > 0) {
        rld_time_sum += d->detect_time();
        ++rld_detecting;
      }
    }
  }
  r.bytes_acked = total.bytes_acked;
  r.segs_sent = total.segs_sent;
  r.retransmits = total.retransmits;
  r.rto_fires = total.rto_fires;
  r.fast_retx = total.fast_retx;
  r.cwnd_reductions = total.cwnd_reductions;
  r.acks_sent = total_acks_sent();
  r.queue_drops = source_->drops();
  r.emit_rejects = total.emit_rejects;
  r.goodput_bps = goodput_of(total.bytes_acked, window);
  if (rld_detected > 0) {
    r.rld_rate_bps = rld_rate_sum / static_cast<double>(rld_detected);
  }
  if (rld_detecting > 0) {
    r.rld_detect_time = rld_time_sum / static_cast<Picos>(rld_detecting);
  }
  const telemetry::Log2Histogram rtt = rtt_probe_.merged();
  if (rtt.count() > 0) {
    r.rtt_p99_ns = rtt.quantile(0.99);
    r.rtt_min_ns = static_cast<double>(rtt.min());
  }
  return r;
}

}  // namespace osnt::tcp
