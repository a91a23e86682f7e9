#include "osnt/graph/dut_blocks.hpp"

namespace osnt::graph {

LegacySwitchBlock::LegacySwitchBlock(sim::Engine& eng, std::string name,
                                     dut::LegacySwitchConfig cfg)
    : Block(eng, std::move(name), cfg.num_ports, cfg.num_ports),
      sw_(eng, cfg) {
  for (std::size_t i = 0; i < sw_.num_ports(); ++i) {
    egress_.emplace_back(*this, i);
    sw_.port(i).out_link().connect(egress_.back());
  }
}

void LegacySwitchBlock::on_frame(std::size_t in_port, net::Packet&& pkt,
                                 Picos first_bit, Picos last_bit) {
  sw_.port(in_port).rx().on_frame(std::move(pkt), first_bit, last_bit);
}

}  // namespace osnt::graph
