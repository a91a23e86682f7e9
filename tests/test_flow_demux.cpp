// The O(1) arithmetic flow demux: the addressing layer that lets
// osnt::tcp scale past 64k flows without per-packet map lookups.
#include <gtest/gtest.h>

#include <cstddef>

#include "osnt/net/headers.hpp"
#include "osnt/tcp/workload.hpp"

namespace osnt::tcp {
namespace {

// ------------------------------------------------------------- demux

TEST(FlowDemux, RoundTripsEveryAddressingRegime) {
  // Indices below, at, and above the 8192-per-group port boundary, plus
  // the extremes of the 2^21 space.
  const std::size_t cases[] = {0,       1,         kPortsPerGroup - 1,
                               kPortsPerGroup,     kPortsPerGroup + 1,
                               100000,  1000000,   kMaxFlows - 1};
  for (const std::size_t i : cases) {
    EXPECT_EQ(flow_index_of_data(receiver_ip_of(i), receiver_port_of(i)), i);
    EXPECT_EQ(flow_index_of_ack(sender_ip_of(i), sender_port_of(i)), i);
  }
}

TEST(FlowDemux, EndpointsAreDistinctAcrossGroups) {
  // Two flows one group apart share a port but differ in the IP octet.
  const std::size_t i = 5, j = i + kPortsPerGroup;
  EXPECT_EQ(receiver_port_of(i), receiver_port_of(j));
  EXPECT_NE(receiver_ip_of(i).v, receiver_ip_of(j).v);
  EXPECT_NE(flow_index_of_data(receiver_ip_of(i), receiver_port_of(i)),
            flow_index_of_data(receiver_ip_of(j), receiver_port_of(j)));
}

TEST(FlowDemux, ForeignTrafficMapsToNoFlow) {
  const net::Ipv4Addr rx = receiver_ip_of(0);
  // Port outside the receiver range (below base, and past the group).
  EXPECT_EQ(flow_index_of_data(rx, kReceiverPortBase - 1), kNoFlow);
  EXPECT_EQ(flow_index_of_data(
                rx, static_cast<std::uint16_t>(kReceiverPortBase +
                                               kPortsPerGroup)),
            kNoFlow);
  // Right port, wrong prefix: sender-side 10.0.x.1, foreign 192.168.0.1,
  // and a wrong host octet 10.1.0.2.
  EXPECT_EQ(flow_index_of_data(sender_ip_of(0), receiver_port_of(0)),
            kNoFlow);
  EXPECT_EQ(flow_index_of_data(net::Ipv4Addr::of(192, 168, 0, 1),
                               receiver_port_of(0)),
            kNoFlow);
  EXPECT_EQ(flow_index_of_data(net::Ipv4Addr::of(10, 1, 0, 2),
                               receiver_port_of(0)),
            kNoFlow);
  // The ACK demux rejects receiver-side addresses symmetrically.
  EXPECT_EQ(flow_index_of_ack(receiver_ip_of(0), sender_port_of(0)),
            kNoFlow);
  EXPECT_EQ(flow_index_of_ack(sender_ip_of(0), kSenderPortBase - 1),
            kNoFlow);
}

}  // namespace
}  // namespace osnt::tcp
