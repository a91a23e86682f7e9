#include "osnt/burst/source.hpp"

#include <utility>

#include "osnt/net/builder.hpp"
#include "osnt/net/headers.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::burst {

BurstSourceBlock::BurstSourceBlock(sim::Engine& eng, std::string name,
                                   BurstSourceConfig cfg)
    : graph::Block(eng, std::move(name), 0, 1), cfg_(cfg) {
  cfg_.pattern.validate();
}

BurstSourceBlock::~BurstSourceBlock() {
  if (telemetry::enabled() && bursts_ > 0) {
    auto& reg = telemetry::registry();
    const std::string prefix = "graph." + name() + ".";
    reg.counter(prefix + "bursts").add(bursts_);
    reg.counter(prefix + "tx_bytes").add(wire_bytes_);
  }
}

net::Packet BurstSourceBlock::make_frame(const PatternConfig& cfg,
                                         std::uint32_t flow_id,
                                         std::size_t frame_size) {
  const auto hi = static_cast<std::uint8_t>((flow_id >> 8) & 0xFF);
  const auto lo = static_cast<std::uint8_t>(flow_id & 0xFF);
  net::PacketBuilder b;
  if (cfg.pattern == Pattern::kAmplification) {
    // The reflected response: spoofed reflector source (TEST-NET style
    // 198.18/15 bench block, "DNS" source port) converging on one victim
    // address and port — the many-to-one shape demux/ECMP stages see.
    b.eth(net::MacAddr::from_index(0x100 + flow_id),
          net::MacAddr::from_index(1))
        .ipv4(net::Ipv4Addr::of(198, 18, hi, lo),
              net::Ipv4Addr::of(203, 0, 113, 1), /*protocol=*/17);
    b.udp(53, 443);
  } else {
    // Spoofed-source spread: per-flow source IP and port so 5-tuple
    // hashes (ECMP, demux) see realistic entropy.
    const auto sport =
        static_cast<std::uint16_t>(1024 + (flow_id % 60000));
    b.eth(net::MacAddr::from_index(0x100 + flow_id),
          net::MacAddr::from_index(1));
    if (cfg.l4 == L4::kTcpSyn) {
      b.ipv4(net::Ipv4Addr::of(10, 0, hi, lo),
             net::Ipv4Addr::of(192, 168, 0, 1), /*protocol=*/6);
      b.tcp(sport, 80, /*seq=*/flow_id, /*ack=*/0, net::TcpFlags::kSyn);
    } else {
      b.ipv4(net::Ipv4Addr::of(10, 0, hi, lo),
             net::Ipv4Addr::of(192, 168, 0, 1), /*protocol=*/17);
      b.udp(sport, 9);
    }
  }
  return b.pad_to_frame(frame_size).build();
}

void BurstSourceBlock::start() {
  if (cfg_.horizon <= 0) {
    throw BurstError("burst: source '" + name() +
                     "' needs a horizon (the topology loader fills it from "
                     "the run duration)");
  }
  sched_ = std::make_unique<BurstSchedule>(cfg_.pattern, cfg_.horizon);
  origin_ = now();
  if (cfg_.batched) {
    const std::size_t n = cfg_.pattern.template_count();
    templates_.clear();
    templates_.reserve(n);
    for (std::size_t f = 0; f < n; ++f) {
      templates_.push_back(make_frame(
          cfg_.pattern, static_cast<std::uint32_t>(f), cfg_.pattern.frame_size));
    }
  }
  if (sched_->bursts().empty()) return;
  if (cfg_.batched) {
    arm_burst(0);
  } else {
    arm_frame(0, 0);
  }
}

void BurstSourceBlock::on_frame(std::size_t /*in_port*/,
                                net::Packet&& /*pkt*/,
                                Picos /*first_bit*/, Picos /*last_bit*/) {
  count_drop();  // sources take no input
}

void BurstSourceBlock::emit_one(std::size_t frame_idx, Picos burst_start) {
  const Picos tx_start = burst_start + sched_->offsets()[frame_idx];
  const std::uint32_t flow = sched_->flow_ids()[frame_idx];
  const std::size_t len = sched_->lengths()[frame_idx];
  // Batched: clone the prebuilt template (the MoonGen hot path). Naive:
  // craft the identical frame from scratch, per frame — the baseline.
  net::Packet pkt = cfg_.batched ? templates_[flow]
                                 : make_frame(cfg_.pattern, flow, len);
  pkt.id = next_id_++;
  pkt.tx_truth = tx_start;
  wire_bytes_ += pkt.wire_len();
  const Picos air =
      net::serialization_time(pkt.line_len(), cfg_.pattern.rate_gbps);
  emit(0, std::move(pkt), tx_start, tx_start + air);
}

void BurstSourceBlock::arm_burst(std::size_t burst_idx) {
  const sim::Engine::CategoryScope cat(engine(), sim::EventCategory::kGen);
  engine().schedule_at(origin_ + sched_->bursts()[burst_idx].start,
                       [this, burst_idx] { emit_burst(burst_idx); });
}

void BurstSourceBlock::emit_burst(std::size_t burst_idx) {
  // ONE event per burst: walk the SoA slice, future-dating each frame's
  // serialization window. Downstream Links schedule deliveries at the
  // same last-bit instants naive per-frame emission produces, so the two
  // modes are indistinguishable on the wire.
  const Burst& b = sched_->bursts()[burst_idx];
  const Picos start = origin_ + b.start;
  for (std::size_t i = 0; i < b.count; ++i) emit_one(b.first + i, start);
  ++bursts_;
  if (burst_idx + 1 < sched_->bursts().size()) arm_burst(burst_idx + 1);
}

void BurstSourceBlock::arm_frame(std::size_t burst_idx,
                                 std::size_t offset_in_burst) {
  const Burst& b = sched_->bursts()[burst_idx];
  const Picos when = origin_ + b.start + sched_->offsets()[b.first + offset_in_burst];
  const sim::Engine::CategoryScope cat(engine(), sim::EventCategory::kGen);
  engine().schedule_at(when, [this, burst_idx, offset_in_burst] {
    const Burst& cur = sched_->bursts()[burst_idx];
    emit_one(cur.first + offset_in_burst, origin_ + cur.start);
    if (offset_in_burst + 1 < cur.count) {
      arm_frame(burst_idx, offset_in_burst + 1);
    } else {
      ++bursts_;
      if (burst_idx + 1 < sched_->bursts().size()) arm_frame(burst_idx + 1, 0);
    }
  });
}

}  // namespace osnt::burst
