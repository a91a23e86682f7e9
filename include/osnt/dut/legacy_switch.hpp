// Legacy (non-OpenFlow) Ethernet switch model — the device under test in
// Part I of the demo. Store-and-forward pipeline with MAC learning,
// flooding, bounded output queues, and a configurable processing latency
// with jitter. The latency-vs-load curve of this model has the canonical
// shape (flat, then a queueing knee near saturation) OSNT measures.
//
// The switch is a graph block with one input and one output per port:
// graph input i feeds port i's RX MAC, and port i's TX link relays into
// graph output i. Testers, queues and other switches reach it only
// through a graph::Graph (connect, input, connect_output).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/graph/block.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/net/headers.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::dut {

struct LegacySwitchConfig {
  std::size_t num_ports = 4;
  /// Fixed pipeline (parse + lookup + scheduling) latency.
  Picos pipeline_latency = 650 * kPicosPerNano;
  /// Gaussian jitter (1 sigma) added to the pipeline latency.
  double latency_jitter_ns = 25.0;
  /// Per-port output buffer; tail-drop beyond this backlog.
  std::size_t queue_bytes = 128 * 1024;
  /// MAC table capacity and aging.
  std::size_t mac_table_size = 16384;
  Picos mac_aging = 300 * kPicosPerSec;
  /// Flood frames with unknown unicast destinations (standard learning
  /// bridge). Disable for statically-programmed fabrics with redundant
  /// paths, where flooding would loop.
  bool flood_unknown = true;
  /// Cut-through forwarding: latency measured from the first bit rather
  /// than frame completion (approximated; see DESIGN.md).
  bool cut_through = false;
  /// Serial lookup engine capacity in Mpps; 0 = unlimited (wire rate).
  /// Under-provisioned switches are packet-rate-limited: small frames
  /// saturate the lookup stage long before the link fills.
  double lookup_rate_mpps = 0.0;
  std::uint64_t seed = 11;
};

/// An N-in/N-out block (N = cfg.num_ports). Every frame in that it does
/// not forward counts in drops(): one its RX MAC discards (FCS-bad, runt
/// or giant), an unparseable frame, a lookup-stage overflow, an unknown
/// unicast it may not flood, a hairpin, and a frame its egress queue
/// refuses.
class LegacySwitch : public graph::Block {
 public:
  using Config = LegacySwitchConfig;

  LegacySwitch(sim::Engine& eng, std::string name, Config cfg = Config());

  /// A frame from graph input `in_port` enters port `in_port`'s RX MAC.
  void on_frame(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
                Picos last_bit) override;

  // --- counters ---
  [[nodiscard]] std::uint64_t frames_forwarded() const noexcept {
    return forwarded_;
  }
  [[nodiscard]] std::uint64_t frames_flooded() const noexcept {
    return flooded_;
  }
  [[nodiscard]] std::size_t mac_table_size() const noexcept {
    return mac_table_.size();
  }

  /// Install a permanent (non-aging) forwarding entry — the "static MAC"
  /// feature used to program fabrics without relying on flooding.
  void add_static_mac(const net::MacAddr& mac, std::size_t port);

 private:
  /// Relays one port's TX link into the block output of the same index.
  class Egress final : public sim::FrameSink {
   public:
    Egress(LegacySwitch& owner, std::size_t port) noexcept
        : owner_(&owner), port_(port) {}
    void on_frame(net::Packet&& pkt, Picos first_bit,
                  Picos last_bit) override {
      owner_->emit(port_, std::move(pkt), first_bit, last_bit);
    }

   private:
    LegacySwitch* owner_;
    std::size_t port_;
  };

  /// Learn, look up and forward a frame its RX MAC accepted.
  void forward(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
               Picos last_bit);
  /// Hand a frame to `out_port`'s TX MAC at `not_before`.
  void release(std::size_t out_port, net::Packet&& pkt, Picos not_before);

  struct MacEntry {
    std::size_t port = 0;
    Picos last_seen = 0;
    bool is_static = false;
  };

  Config cfg_;
  Rng rng_;
  std::vector<std::unique_ptr<hw::EthPort>> ports_;
  std::deque<Egress> egress_;
  std::unordered_map<std::uint64_t, MacEntry> mac_table_;
  Picos lookup_busy_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t flooded_ = 0;
};

}  // namespace osnt::dut
