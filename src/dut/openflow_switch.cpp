#include "osnt/dut/openflow_switch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "osnt/net/parser.hpp"

namespace osnt::dut {
namespace {

using namespace osnt::openflow;

/// Frame bytes a packet_in carries.
constexpr std::size_t kPacketInTrunc = 128;

/// Insert an 802.1Q tag (or rewrite the VID of an existing one). Either
/// way the frame gets bytes of its own: copies that share them keep the
/// frame as it was.
void set_vlan(net::FrameBuf& frame, std::uint16_t vid) {
  const ByteSpan in = frame.span();
  if (in.size() < net::EthHeader::kSize) return;
  if (load_be16(in.data() + 12) ==
      static_cast<std::uint16_t>(net::EtherType::kVlan)) {
    std::uint8_t* const tci = frame.data() + 14;  // copies shared bytes
    store_be16(tci, static_cast<std::uint16_t>((load_be16(tci) & 0xF000) |
                                               (vid & 0x0FFF)));
    return;
  }
  net::FrameBuf tagged(in.size() + net::VlanTag::kSize);
  std::uint8_t* const out = tagged.data();
  std::memcpy(out, in.data(), 12);
  store_be16(out + 12, static_cast<std::uint16_t>(net::EtherType::kVlan));
  store_be16(out + 14, vid & 0x0FFF);
  std::memcpy(out + 16, in.data() + 12, in.size() - 12);
  frame = std::move(tagged);
}

}  // namespace

OpenFlowSwitch::OpenFlowSwitch(sim::Engine& eng,
                               openflow::ControlChannel& chan, Config cfg)
    : eng_(&eng), cfg_(cfg), rng_(cfg.seed), ctrl_(&chan.switch_end()),
      table_(cfg.table), pin_tokens_(cfg.packet_in_limit_pps) {
  hw::EthPortConfig pc;
  pc.tx.queue_limit_bytes = cfg_.queue_bytes;
  for (std::size_t i = 0; i < cfg_.num_ports; ++i) {
    ports_.push_back(std::make_unique<hw::EthPort>(eng, pc));
    ports_[i]->rx().set_handler(
        [this, i](net::Packet&& pkt, Picos first_bit, Picos last_bit) {
          on_frame(i, std::move(pkt), first_bit, last_bit);
        });
  }
  if (cfg_.queue_rates.empty()) cfg_.queue_rates = {1.0};
  shaper_free_.assign(cfg_.num_ports,
                      std::vector<Picos>(cfg_.queue_rates.size(), 0));
  ctrl_->set_handler([this](openflow::Decoded d) { on_control(d); });
}

Picos OpenFlowSwitch::agent_run(Picos cost) {
  if (cfg_.agent_jitter_ns > 0) {
    cost += from_nanos(std::abs(rng_.normal(0.0, cfg_.agent_jitter_ns)));
  }
  const Picos start = std::max(eng_->now(), agent_busy_);
  agent_busy_ = start + cost;
  return agent_busy_;
}

void OpenFlowSwitch::on_control(openflow::Decoded& d) {
  std::visit(
      [&](auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, EchoRequest>) {
          const Picos done = agent_run(cfg_.agent_service);
          const std::uint32_t xid = d.xid;
          eng_->schedule_at(
              done, [this, payload = std::move(msg.payload), xid]() mutable {
                ctrl_->send(EchoReply{std::move(payload)}, xid);
              });
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          // Stage 1: agent parses/validates the message (serial CPU).
          const Picos parsed = agent_run(cfg_.agent_service);
          // Stage 2: asynchronous hardware commit; the cost grows with
          // table occupancy (TCAM reshuffling).
          const std::uint32_t xid = d.xid;
          eng_->schedule_at(parsed, [this, mod = std::move(msg),
                                     xid]() mutable {
            const Picos cost =
                cfg_.commit_base +
                cfg_.commit_per_entry * static_cast<Picos>(table_.size());
            commit_busy_ = std::max(commit_busy_, eng_->now()) + cost;
            // The mod rides through both stages by move; nothing is shared.
            eng_->schedule_at(commit_busy_, [this, mod = std::move(mod), xid] {
              const auto result = table_.apply(mod, eng_->now());
              ++commits_done_;
              if (result == FlowTable::ModResult::kAdded) return;
              ErrorMsg err;
              err.type = ofpet::kFlowModFailed;
              err.code = result == FlowTable::ModResult::kTableFull
                             ? ofpfmfc::kAllTablesFull
                             : ofpfmfc::kBadCommand;
              err.data = encode(mod, xid);  // spec: offending message
              ctrl_->send(std::move(err), xid);
            });
          });
        } else if constexpr (std::is_same_v<T, BarrierRequest>) {
          const Picos agent_done = agent_run(cfg_.agent_service);
          const std::uint32_t xid = d.xid;
          // The commit backlog is only known once the agent has parsed all
          // prior messages, so the covers-commit check must run *at*
          // agent_done, not now.
          eng_->schedule_at(agent_done, [this, xid] {
            const Picos done = cfg_.barrier_covers_commit
                                   ? std::max(eng_->now(), commit_busy_)
                                   : eng_->now();
            eng_->schedule_at(done,
                              [this, xid] { ctrl_->send(BarrierReply{}, xid); });
          });
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          const Picos done = agent_run(cfg_.agent_service);
          eng_->schedule_at(done, [this, po = std::move(msg)] {
            execute_actions(po.actions, net::Packet{po.data}, eng_->now());
          });
        } else if constexpr (std::is_same_v<T, FlowStatsRequest>) {
          // Stats extraction cost scales with the table scan.
          const Picos done = agent_run(
              cfg_.agent_service +
              static_cast<Picos>(table_.size()) * 2 * kPicosPerMicro);
          const std::uint32_t xid = d.xid;
          eng_->schedule_at(done, [this, req = std::move(msg), xid] {
            std::vector<FlowStatsEntry> flows;
            for (const auto* e : table_.collect_stats(req)) {
              FlowStatsEntry fe;
              fe.match = e->match;
              fe.priority = e->priority;
              fe.cookie = e->cookie;
              fe.packet_count = e->packet_count;
              fe.byte_count = e->byte_count;
              fe.actions = e->actions;
              const Picos age = eng_->now() - e->installed_at;
              fe.duration_sec = static_cast<std::uint32_t>(age / kPicosPerSec);
              fe.duration_nsec = static_cast<std::uint32_t>(
                  (age % kPicosPerSec) / kPicosPerNano);
              flows.push_back(std::move(fe));
            }
            // A reply past 64 KiB goes out in parts, as OF 1.0 allows.
            for (const auto& part : split_flow_stats(std::move(flows)))
              ctrl_->send(part, xid);
          });
        } else {
          // Replies and errors arriving at a switch: ignore.
        }
      },
      d.msg);
}

void OpenFlowSwitch::on_frame(std::size_t in_port, net::Packet&& pkt,
                              Picos first_bit, Picos /*last_bit*/) {
  (void)first_bit;
  auto parsed = net::parse_packet(pkt.bytes());
  if (!parsed) return;
  const OfMatch concrete =
      OfMatch::from_packet(*parsed, static_cast<std::uint16_t>(in_port + 1));

  const FlowEntry* entry = table_.lookup(concrete, pkt.wire_len());
  if (!entry) {
    ++misses_;
    send_packet_in(in_port, pkt);
    return;
  }

  Picos latency = cfg_.pipeline_latency;
  if (cfg_.latency_jitter_ns > 0)
    latency += from_nanos(std::abs(rng_.normal(0.0, cfg_.latency_jitter_ns)));
  execute_actions(entry->actions, std::move(pkt), eng_->now() + latency);
}

void OpenFlowSwitch::execute_actions(
    const std::vector<openflow::Action>& actions, net::Packet&& pkt,
    Picos release) {
  // Header-modifying actions cost extra pipeline (or slow-path) time.
  // The last output or enqueue takes the frame itself; the ones before it
  // get copies, as LegacySwitch's flood does.
  std::size_t last = actions.size();
  for (std::size_t a = 0; a < actions.size(); ++a) {
    if (std::holds_alternative<ActionSetVlanVid>(actions[a]))
      release += cfg_.action_modify_latency;
    else
      last = a;
  }
  auto forward = [&](Picos at, std::size_t port, bool take) {
    ++forwarded_;
    eng_->schedule_at(at, [this, port, p = take ? std::move(pkt)
                                                : net::Packet{pkt}]() mutable {
      ports_[port]->tx().transmit(std::move(p));
    });
  };
  for (std::size_t a = 0; a < actions.size(); ++a) {
    const Action& action = actions[a];
    const bool take = a == last;
    if (const auto* sv = std::get_if<ActionSetVlanVid>(&action)) {
      set_vlan(pkt.data, sv->vlan_vid);
    } else if (const auto* enq = std::get_if<ActionEnqueue>(&action)) {
      // Queue shaper: serialize this queue's frames at its rate share.
      if (enq->port >= 1 && enq->port <= ports_.size() &&
          enq->queue_id < cfg_.queue_rates.size()) {
        const std::size_t port = enq->port - 1;
        const double rate = cfg_.queue_rates[enq->queue_id];
        Picos& shaper = shaper_free_[port][enq->queue_id];
        const Picos start = std::max(release, shaper);
        shaper = start + net::serialization_time(pkt.line_len(),
                                                 10.0 * std::max(rate, 1e-6));
        if (enq->queue_id != 0) ++enqueue_shaped_;
        forward(start, port, take);
      }
    } else if (const auto* out = std::get_if<ActionOutput>(&action)) {
      if (out->port >= 1 && out->port <= ports_.size())
        forward(release, out->port - 1, take);
    }
  }
  // Empty action list = drop (per OF 1.0).
}

void OpenFlowSwitch::send_packet_in(std::size_t in_port,
                                    const net::Packet& pkt) {
  // Token-bucket rate limiter, as commercial switches protect their CPU.
  if (cfg_.packet_in_limit_pps > 0) {
    const Picos now = eng_->now();
    pin_tokens_ = std::min(
        cfg_.packet_in_limit_pps,
        pin_tokens_ + to_seconds(now - pin_last_refill_) *
                          cfg_.packet_in_limit_pps);
    pin_last_refill_ = now;
    if (pin_tokens_ < 1.0) {
      ++packet_ins_limited_;
      return;
    }
    pin_tokens_ -= 1.0;
  }
  const Picos done = agent_run(cfg_.agent_service);
  PacketIn pin;
  pin.total_len = static_cast<std::uint16_t>(pkt.size());
  pin.in_port = static_cast<std::uint16_t>(in_port + 1);
  pin.reason = PacketInReason::kNoMatch;
  const std::size_t keep = std::min(kPacketInTrunc, pkt.size());
  pin.data = to_bytes(pkt.bytes().first(keep));
  eng_->schedule_at(done, [this, pin = std::move(pin)]() mutable {
    ++packet_ins_;
    ctrl_->send(std::move(pin));
  });
}

}  // namespace osnt::dut
