#include "osnt/graph/blocks.hpp"

#include <algorithm>
#include <cmath>

#include "osnt/common/hash.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::graph {

// ------------------------------------------------------------ fifo_queue

FifoQueueBlock::FifoQueueBlock(sim::Engine& eng, std::string name,
                               FifoQueueConfig cfg)
    : Block(eng, std::move(name), 1, 1),
      fifo_cfg_(cfg),
      departures_(eng, Depart{this}) {
  if (fifo_cfg_.rate_gbps <= 0.0) {
    throw GraphError("graph: fifo_queue '" + this->name() +
                     "' needs rate_gbps > 0");
  }
  if (fifo_cfg_.queue_frames == 0) {
    throw GraphError("graph: fifo_queue '" + this->name() +
                     "' needs queue_frames > 0");
  }
}

FifoQueueBlock::~FifoQueueBlock() {
  if (telemetry::enabled() && frames_in() > 0) {
    auto& reg = telemetry::registry();
    const std::string prefix = "graph." + name() + ".";
    reg.counter(prefix + "tail_drops").add(tail_drops_);
    reg.gauge(prefix + "peak_depth")
        .update_max(static_cast<std::int64_t>(peak_));
  }
}

void FifoQueueBlock::set_queue_frames(std::size_t frames) {
  if (frames == 0) {
    throw GraphError("graph: fifo_queue '" + name() +
                     "' retime needs queue_frames > 0");
  }
  fifo_cfg_.queue_frames = frames;
}

void FifoQueueBlock::on_frame(std::size_t /*in_port*/, net::Packet pkt,
                              Picos /*first_bit*/, Picos /*last_bit*/) {
  if (depth_ >= fifo_cfg_.queue_frames) {
    count_tail_drop();
    return;
  }
  enqueue(std::move(pkt));
}

void FifoQueueBlock::enqueue(net::Packet pkt) {
  ++depth_;
  peak_ = std::max(peak_, depth_);
  const Picos start = std::max(now(), busy_until_);
  const Picos air = net::serialization_time(pkt.line_len(), fifo_cfg_.rate_gbps);
  const Picos end = start + air;
  busy_until_ = end;
  departures_.push(end, sim::TimedFrame{std::move(pkt), start, end});
}

// ------------------------------------------------------------------- red

RedBlock::RedBlock(sim::Engine& eng, std::string name, RedConfig cfg)
    : FifoQueueBlock(eng, std::move(name),
                     FifoQueueConfig{cfg.rate_gbps, cfg.queue_frames}),
      cfg_(cfg),
      rng_(cfg.seed) {
  if (!(cfg_.min_th < cfg_.max_th)) {
    throw GraphError("graph: red '" + this->name() +
                     "' needs min_th < max_th");
  }
  if (cfg_.max_p <= 0.0 || cfg_.max_p > 1.0) {
    throw GraphError("graph: red '" + this->name() +
                     "' needs max_p in (0, 1]");
  }
  if (cfg_.weight <= 0.0 || cfg_.weight > 1.0) {
    throw GraphError("graph: red '" + this->name() +
                     "' needs weight in (0, 1]");
  }
}

RedBlock::~RedBlock() {
  if (telemetry::enabled() && frames_in() > 0) {
    auto& reg = telemetry::registry();
    const std::string prefix = "graph." + name() + ".";
    reg.counter(prefix + "red_early_drops").add(early_drops_);
    reg.counter(prefix + "red_forced_drops").add(forced_drops_);
  }
}

void RedBlock::on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                        Picos last_bit) {
  avg_ += cfg_.weight * (static_cast<double>(depth()) - avg_);
  if (avg_ >= cfg_.max_th) {
    ++forced_drops_;
    count_drop();
    return;
  }
  if (avg_ >= cfg_.min_th) {
    const double p =
        cfg_.max_p * (avg_ - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
    if (rng_.chance(p)) {
      ++early_drops_;
      count_drop();
      return;
    }
  }
  FifoQueueBlock::on_frame(in_port, std::move(pkt), first_bit, last_bit);
}

// ----------------------------------------------------------- token_bucket

TokenBucketBlock::TokenBucketBlock(sim::Engine& eng, std::string name,
                                   TokenBucketConfig cfg)
    : Block(eng, std::move(name), 1, 1),
      cfg_(cfg),
      bytes_per_pico_(cfg.rate_gbps / 8000.0),
      tokens_(static_cast<double>(cfg.burst_bytes)),
      releases_(eng, Release{this}) {
  if (cfg_.rate_gbps <= 0.0) {
    throw GraphError("graph: token_bucket '" + this->name() +
                     "' needs rate_gbps > 0");
  }
  if (cfg_.burst_bytes == 0) {
    throw GraphError("graph: token_bucket '" + this->name() +
                     "' needs burst_bytes > 0");
  }
}

TokenBucketBlock::~TokenBucketBlock() {
  if (telemetry::enabled() && frames_in() > 0) {
    auto& reg = telemetry::registry();
    const std::string prefix = "graph." + name() + ".";
    reg.counter(prefix + "conforming").add(conforming_);
    reg.counter(prefix + "shaped").add(shaped_);
    reg.counter(prefix + "policed").add(policed_);
  }
}

void TokenBucketBlock::set_rate_gbps(double rate_gbps) {
  if (rate_gbps <= 0.0) {
    throw GraphError("graph: token_bucket '" + name() +
                     "' retime needs rate_gbps > 0");
  }
  // Settle the balance at the old slope first — tokens earned before the
  // retime were earned at the old rate — then switch the slope.
  refill();
  cfg_.rate_gbps = rate_gbps;
  bytes_per_pico_ = rate_gbps / 8000.0;
}

void TokenBucketBlock::set_burst_bytes(std::size_t burst_bytes) {
  if (burst_bytes == 0) {
    throw GraphError("graph: token_bucket '" + name() +
                     "' retime needs burst_bytes > 0");
  }
  refill();
  cfg_.burst_bytes = burst_bytes;
  // A shrunken bucket spills the excess; a shaping deficit (negative
  // balance) is untouched — those bytes were already borrowed.
  tokens_ = std::min(tokens_, static_cast<double>(burst_bytes));
}

void TokenBucketBlock::set_queue_frames(std::size_t frames) {
  if (frames == 0) {
    throw GraphError("graph: token_bucket '" + name() +
                     "' retime needs queue_frames > 0");
  }
  cfg_.queue_frames = frames;  // gates admission only; backlog stays
}

void TokenBucketBlock::refill() noexcept {
  const Picos t = now();
  tokens_ = std::min(static_cast<double>(cfg_.burst_bytes),
                     tokens_ + static_cast<double>(t - last_refill_) *
                                   bytes_per_pico_);
  last_refill_ = t;
}

void TokenBucketBlock::on_frame(std::size_t /*in_port*/, net::Packet pkt,
                                Picos first_bit, Picos last_bit) {
  refill();
  const double cost = static_cast<double>(pkt.line_len());
  if (tokens_ >= cost) {
    tokens_ -= cost;
    ++conforming_;
    emit(0, std::move(pkt), first_bit, last_bit);
    return;
  }
  if (!cfg_.shape) {
    ++policed_;
    count_drop();
    return;
  }
  if (backlog_ >= cfg_.queue_frames) {
    count_drop();
    return;
  }
  // Shape: borrow against future refill. The deficit (negative balance)
  // fixes the release time; keeping releases monotonic preserves FIFO
  // order when several frames are backlogged at once.
  tokens_ -= cost;
  const Picos wait =
      static_cast<Picos>(std::ceil(-tokens_ / bytes_per_pico_));
  const Picos release = std::max(now() + wait, last_release_ + 1);
  last_release_ = release;
  ++backlog_;
  ++shaped_;
  const Picos dur = last_bit - first_bit;
  releases_.push(release,
                 sim::TimedFrame{std::move(pkt), release - dur, release});
}

// -------------------------------------------------------------- delay_ber

DelayBerBlock::DelayBerBlock(sim::Engine& eng, std::string name,
                             DelayBerConfig cfg)
    : Block(eng, std::move(name), 1, 1), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.ber < 0.0 || cfg_.ber >= 1.0) {
    throw GraphError("graph: delay_ber '" + this->name() +
                     "' needs ber in [0, 1)");
  }
}

DelayBerBlock::~DelayBerBlock() {
  if (telemetry::enabled() && corrupted_ > 0) {
    telemetry::registry()
        .counter("graph." + name() + ".corrupted")
        .add(corrupted_);
  }
}

void DelayBerBlock::on_frame(std::size_t /*in_port*/, net::Packet pkt,
                             Picos first_bit, Picos last_bit) {
  if (cfg_.ber > 0.0 && !pkt.empty()) {
    // Same frame-hit model as sim::Link: P = 1 - (1-ber)^bits, one bit
    // flipped on a hit, FCS marked bad for the receiver to discard.
    // P depends only on the line length, and streams repeat lengths.
    if (pkt.line_len() != hit_line_len_) {
      hit_line_len_ = pkt.line_len();
      const double bits = static_cast<double>(hit_line_len_) * 8.0;
      p_hit_ = -std::expm1(bits * std::log1p(-cfg_.ber));
    }
    if (rng_.chance(p_hit_)) {
      const auto byte = rng_.uniform_int(0, pkt.size() - 1);
      const auto bit = rng_.uniform_int(0, 7);
      pkt.data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      pkt.fcs_bad = true;
      ++corrupted_;
    }
  }
  emit(0, std::move(pkt), first_bit + cfg_.delay, last_bit + cfg_.delay);
}

// ------------------------------------------------------------------ ecmp

EcmpBlock::EcmpBlock(sim::Engine& eng, std::string name, EcmpConfig cfg)
    : Block(eng, std::move(name), 1, cfg.fanout), cfg_(cfg) {
  if (cfg_.fanout == 0) {
    throw GraphError("graph: ecmp '" + this->name() + "' needs fanout > 0");
  }
}

void EcmpBlock::on_frame(std::size_t /*in_port*/, net::Packet pkt,
                         Picos first_bit, Picos last_bit) {
  std::uint64_t h;
  const auto parsed = net::parse_packet(pkt.bytes());
  if (parsed && parsed->l3 == net::L3Kind::kIpv4) {
    // Pack the 5-tuple into a fixed little buffer so the hash covers
    // exactly the flow identity, independent of payload bytes.
    std::uint8_t key[13] = {};
    const auto& ip = parsed->ipv4;
    std::uint16_t sp = 0, dp = 0;
    if (parsed->l4 == net::L4Kind::kTcp) {
      sp = parsed->tcp.src_port;
      dp = parsed->tcp.dst_port;
    } else if (parsed->l4 == net::L4Kind::kUdp) {
      sp = parsed->udp.src_port;
      dp = parsed->udp.dst_port;
    }
    const std::uint32_t s = ip.src.v, d = ip.dst.v;
    key[0] = static_cast<std::uint8_t>(s >> 24);
    key[1] = static_cast<std::uint8_t>(s >> 16);
    key[2] = static_cast<std::uint8_t>(s >> 8);
    key[3] = static_cast<std::uint8_t>(s);
    key[4] = static_cast<std::uint8_t>(d >> 24);
    key[5] = static_cast<std::uint8_t>(d >> 16);
    key[6] = static_cast<std::uint8_t>(d >> 8);
    key[7] = static_cast<std::uint8_t>(d);
    key[8] = ip.protocol;
    key[9] = static_cast<std::uint8_t>(sp >> 8);
    key[10] = static_cast<std::uint8_t>(sp);
    key[11] = static_cast<std::uint8_t>(dp >> 8);
    key[12] = static_cast<std::uint8_t>(dp);
    h = fnv1a64(ByteSpan{key, sizeof key});
  } else {
    h = fnv1a64(pkt.bytes());
  }
  h ^= cfg_.salt;
  emit(static_cast<std::size_t>(h % cfg_.fanout), std::move(pkt), first_bit,
       last_bit);
}

// ------------------------------------------------------------------ sink

SinkBlock::SinkBlock(sim::Engine& eng, std::string name)
    : Block(eng, std::move(name), 1, 0) {}

SinkBlock::~SinkBlock() {
  if (telemetry::enabled() && frames_in() > 0) {
    telemetry::registry().counter("graph." + name() + ".bytes").add(bytes_);
  }
}

void SinkBlock::on_frame(std::size_t /*in_port*/, net::Packet pkt,
                         Picos /*first_bit*/, Picos last_bit) {
  bytes_ += pkt.wire_len();
  last_arrival_ = last_bit;
}

// --------------------------------------------------------------- monitor

MonitorBlock::MonitorBlock(sim::Engine& eng, std::string name,
                           MonitorConfig cfg)
    : Block(eng, std::move(name), 1, 1), cfg_(cfg) {}

MonitorBlock::~MonitorBlock() {
  if (telemetry::enabled() && frames_in() > 0) {
    auto& reg = telemetry::registry();
    const std::string prefix = "graph." + name() + ".";
    reg.counter(prefix + "bytes").add(bytes_);
    reg.counter(prefix + "fcs_errors").add(fcs_errors_);
    reg.histogram(prefix + "frame_bytes").merge(frame_bytes_);
    rtt_probe_.flush(prefix);
  }
}

namespace {

/// Traffic class without a full parse: the IPv4 DSCP low bits, read
/// straight off the TOS byte (eth[12..13] == 0x0800, tos at eth+15).
/// Non-IPv4 and VLAN-tagged frames fall into class 0.
std::uint8_t frame_class(const net::Packet& pkt) noexcept {
  const auto b = pkt.bytes();
  if (b.size() >= 16 && b[12] == 0x08 && b[13] == 0x00) {
    return static_cast<std::uint8_t>((b[15] >> 2) &
                                     mon::LatencyProbe::kClassMask);
  }
  return 0;
}

}  // namespace

void MonitorBlock::on_frame(std::size_t /*in_port*/, net::Packet pkt,
                            Picos first_bit, Picos last_bit) {
  bytes_ += pkt.wire_len();
  frame_bytes_.record(pkt.wire_len());
  if (pkt.fcs_bad) ++fcs_errors_;
  // In-plane latency at the tap: source-MAC ground truth to arrival here,
  // recorded for every frame regardless of what downstream blocks or the
  // capture path do with it.
  if (cfg_.rtt_probe && pkt.tx_truth >= 0 && first_bit >= pkt.tx_truth) {
    rtt_probe_.observe(
        static_cast<std::uint64_t>((first_bit - pkt.tx_truth) / kPicosPerNano),
        frame_class(pkt));
  }
  emit(0, std::move(pkt), first_bit, last_bit);
}

}  // namespace osnt::graph
