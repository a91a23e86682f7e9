// Test helper: cable an Ethernet port to a port of a graph block, both
// directions, the way a tester's port plugs into a switch port.
#pragma once

#include <string>

#include "osnt/graph/graph.hpp"
#include "osnt/hw/port.hpp"

namespace osnt::test {

/// `port`'s TX link feeds `block`'s input `block_port`, and the block's
/// output of the same index feeds `port`'s RX MAC.
inline void plug(graph::Graph& g, const std::string& block,
                 std::size_t block_port, hw::EthPort& port) {
  port.out_link().connect(g.input(block, block_port));
  g.connect_output(block, block_port, port.rx());
}

}  // namespace osnt::test
