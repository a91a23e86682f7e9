// The existing DUT models re-expressed as graph nodes. Each wrapper owns
// a real switch and bridges the two seams: graph input port i feeds the
// switch's RX MAC on port i, and the switch's TX link on port i relays
// into graph output port i. Everything
// the standalone models do — MAC learning, queueing knees, flow-table
// pipelines, agent/commit latency — composes with queues, shapers, and
// impairment blocks in a topology without a line of glue.
#pragma once

#include <deque>

#include "osnt/dut/legacy_switch.hpp"
#include "osnt/dut/openflow_switch.hpp"
#include "osnt/graph/block.hpp"
#include "osnt/openflow/channel.hpp"

namespace osnt::graph {

/// dut::LegacySwitch as an N-in/N-out block (N = cfg.num_ports).
class LegacySwitchBlock : public Block {
 public:
  LegacySwitchBlock(sim::Engine& eng, std::string name,
                    dut::LegacySwitchConfig cfg = {});

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  /// The wrapped switch, for static MACs and counter assertions.
  [[nodiscard]] dut::LegacySwitch& dut() noexcept { return sw_; }

 private:
  /// Relays one switch TX link into one graph output port.
  class Egress final : public sim::FrameSink {
   public:
    Egress(LegacySwitchBlock& owner, std::size_t port) noexcept
        : owner_(&owner), port_(port) {}
    void on_frame(net::Packet pkt, Picos first_bit, Picos last_bit) override {
      owner_->emit(port_, std::move(pkt), first_bit, last_bit);
    }

   private:
    LegacySwitchBlock* owner_;
    std::size_t port_;
  };

  dut::LegacySwitch sw_;
  std::deque<Egress> egress_;
};

/// dut::OpenFlowSwitch as an N-in/N-out block. The block owns its
/// control channel (default ChannelConfig); drive the switch through
/// controller().
class OpenFlowSwitchBlock : public Block {
 public:
  OpenFlowSwitchBlock(sim::Engine& eng, std::string name,
                      dut::OpenFlowSwitchConfig cfg = {});

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] openflow::ControlChannel::Endpoint& controller() noexcept {
    return chan_.controller();
  }
  [[nodiscard]] dut::OpenFlowSwitch& dut() noexcept { return sw_; }

 private:
  class Egress final : public sim::FrameSink {
   public:
    Egress(OpenFlowSwitchBlock& owner, std::size_t port) noexcept
        : owner_(&owner), port_(port) {}
    void on_frame(net::Packet pkt, Picos first_bit, Picos last_bit) override {
      owner_->emit(port_, std::move(pkt), first_bit, last_bit);
    }

   private:
    OpenFlowSwitchBlock* owner_;
    std::size_t port_;
  };

  openflow::ControlChannel chan_;
  dut::OpenFlowSwitch sw_;
  std::deque<Egress> egress_;
};

}  // namespace osnt::graph
