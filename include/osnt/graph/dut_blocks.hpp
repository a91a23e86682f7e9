// The legacy switch re-expressed as a graph node. The wrapper owns a real
// switch and bridges the two seams: graph input port i feeds the switch's
// RX MAC on port i, and the switch's TX link on port i relays into graph
// output port i. Everything the standalone model does — MAC learning,
// queueing knees, lookup-rate limits — composes with queues, shapers, and
// impairment blocks in a topology without a line of glue. The OpenFlow
// switch is no block: nothing in a topology could program its table, so
// oflops::Testbed is where it is driven.
#pragma once

#include <deque>

#include "osnt/dut/legacy_switch.hpp"
#include "osnt/graph/block.hpp"

namespace osnt::graph {

/// dut::LegacySwitch as an N-in/N-out block (N = cfg.num_ports).
class LegacySwitchBlock : public Block {
 public:
  LegacySwitchBlock(sim::Engine& eng, std::string name,
                    dut::LegacySwitchConfig cfg = {});

  void on_frame(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
                Picos last_bit) override;

  /// The wrapped switch, for static MACs and counter assertions.
  [[nodiscard]] dut::LegacySwitch& dut() noexcept { return sw_; }

 private:
  /// Relays one switch TX link into one graph output port.
  class Egress final : public sim::FrameSink {
   public:
    Egress(LegacySwitchBlock& owner, std::size_t port) noexcept
        : owner_(&owner), port_(port) {}
    void on_frame(net::Packet&& pkt, Picos first_bit,
                  Picos last_bit) override {
      owner_->emit(port_, std::move(pkt), first_bit, last_bit);
    }

   private:
    LegacySwitchBlock* owner_;
    std::size_t port_;
  };

  dut::LegacySwitch sw_;
  std::deque<Egress> egress_;
};

}  // namespace osnt::graph
