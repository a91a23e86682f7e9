#include "osnt/dut/legacy_switch.hpp"

#include <algorithm>

#include "osnt/net/parser.hpp"

namespace osnt::dut {

LegacySwitch::LegacySwitch(sim::Engine& eng, std::string name, Config cfg)
    : Block(eng, std::move(name), cfg.num_ports, cfg.num_ports),
      cfg_(cfg),
      rng_(cfg.seed) {
  hw::EthPortConfig pc;
  pc.tx.queue_limit_bytes = cfg_.queue_bytes;
  for (std::size_t i = 0; i < cfg_.num_ports; ++i) {
    ports_.push_back(std::make_unique<hw::EthPort>(eng, pc));
    ports_[i]->rx().set_handler(
        [this, i](net::Packet&& pkt, Picos first_bit, Picos last_bit) {
          forward(i, std::move(pkt), first_bit, last_bit);
        });
    ports_[i]->out_link().connect(egress_.emplace_back(*this, i));
  }
}

void LegacySwitch::on_frame(std::size_t in_port, net::Packet&& pkt,
                            Picos first_bit, Picos last_bit) {
  hw::RxMac& mac = ports_[in_port]->rx();
  const std::uint64_t accepted = mac.frames_received();
  mac.on_frame(std::move(pkt), first_bit, last_bit);
  if (mac.frames_received() == accepted) count_drop();  // FCS, runt, giant
}

void LegacySwitch::add_static_mac(const net::MacAddr& mac, std::size_t port) {
  mac_table_[mac.to_u64()] = {port, 0, true};
}

void LegacySwitch::forward(std::size_t in_port, net::Packet&& pkt,
                           Picos first_bit, Picos last_bit) {
  auto eth = net::EthHeader::read(pkt.bytes());
  if (!eth) {
    count_drop();
    return;
  }

  // --- learning (static entries are never overwritten) ---
  if (!eth->src.is_multicast()) {
    const auto it = mac_table_.find(eth->src.to_u64());
    if (it != mac_table_.end()) {
      if (!it->second.is_static) it->second = {in_port, engine().now(), false};
    } else if (mac_table_.size() < cfg_.mac_table_size) {
      mac_table_[eth->src.to_u64()] = {in_port, engine().now(), false};
    }
  }

  // --- lookup stage (serial, packet-rate-limited when configured) ---
  Picos lookup_done = engine().now();
  if (cfg_.lookup_rate_mpps > 0.0) {
    // Max backlog (in time) tolerated at the lookup stage before ingress
    // drops.
    constexpr Picos kLookupQueueLimit = 100 * kPicosPerMicro;
    const Picos per_lookup =
        static_cast<Picos>(1e6 / cfg_.lookup_rate_mpps);  // ps per packet
    const Picos start = std::max(engine().now(), lookup_busy_);
    if (start - engine().now() > kLookupQueueLimit) {
      count_drop();
      return;  // ingress queue overflow
    }
    lookup_busy_ = start + per_lookup;
    lookup_done = lookup_busy_;
  }

  // --- forwarding decision ---
  Picos latency = cfg_.pipeline_latency;
  if (cfg_.latency_jitter_ns > 0) {
    latency += from_nanos(
        std::abs(rng_.normal(0.0, cfg_.latency_jitter_ns)));
  }
  // Cut-through: the egress decision races the tail of the frame, so the
  // effective release time is anchored on the first bit. The handler runs
  // at last_bit, so the release clamps to "now" when the frame is longer
  // than the pipeline — matching real cut-through switches degrading to
  // store-and-forward timing for short pipelines.
  const Picos anchor = cfg_.cut_through ? first_bit : last_bit;
  const Picos release_at =
      std::max({anchor + latency, engine().now(), lookup_done});

  std::size_t out = SIZE_MAX;
  if (!eth->dst.is_multicast()) {
    const auto it = mac_table_.find(eth->dst.to_u64());
    if (it != mac_table_.end() &&
        (it->second.is_static ||
         engine().now() - it->second.last_seen <= cfg_.mac_aging)) {
      out = it->second.port;
    }
  }

  if (out != SIZE_MAX) {
    if (out == in_port) {
      count_drop();
      return;  // hairpin suppression
    }
    ++forwarded_;
    release(out, std::move(pkt), release_at);
    return;
  }

  if (!cfg_.flood_unknown && !eth->dst.is_multicast()) {
    count_drop();
    return;
  }

  // Unknown unicast / multicast / broadcast: flood. The last egress port
  // takes the frame itself; only the others get copies.
  ++flooded_;
  std::size_t egress_left = ports_.size() - 1;  // all but in_port
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (i == in_port) continue;
    release(i, --egress_left == 0 ? std::move(pkt) : net::Packet{pkt},
            release_at);
  }
}

void LegacySwitch::release(std::size_t out_port, net::Packet&& pkt,
                           Picos not_before) {
  const sim::Engine::CategoryScope cat(engine(), sim::EventCategory::kDut);
  engine().schedule_at(not_before,
                       [this, out_port, pkt = std::move(pkt)]() mutable {
                         if (!ports_[out_port]->tx().transmit(std::move(pkt)))
                           count_drop();  // egress queue full
                       });
}

}  // namespace osnt::dut
