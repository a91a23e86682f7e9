// Heap-allocation counts of closed-loop set-up and of the frame path.
// This binary replaces the global operator new and delete
// (alloc_hooks.cpp), so a test can count every allocation made between
// two points. A constructed flow owns one heap object, its congestion
// controller; its queues allocate when it first sends and first measures
// a delivery rate, not before. A frame crosses every hop by reference, so
// once the path is warm, forwarding it allocates nothing, and a frame
// sent out more than once, or cloned from a template, shares its bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "osnt/burst/source.hpp"
#include "osnt/common/fifo.hpp"
#include "osnt/core/device.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/dut/openflow_switch.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/workload.hpp"

namespace osnt::test {
/// Allocations since the program started (alloc_hooks.cpp).
std::uint64_t allocations() noexcept;
}  // namespace osnt::test

namespace {

/// Allocations made since construction.
class AllocCount {
 public:
  [[nodiscard]] std::uint64_t get() const {
    return osnt::test::allocations() - start_;
  }

 private:
  std::uint64_t start_ = osnt::test::allocations();
};

}  // namespace

namespace osnt::tcp {
namespace {

TEST(Alloc, FifoAllocatesOnItsFirstPushOnly) {
  const AllocCount n;
  Fifo<std::uint64_t> q;
  q.clear();
  EXPECT_EQ(n.get(), 0u);
  for (std::uint64_t v = 0; v < Fifo<std::uint64_t>::kFirstCapacity; ++v) {
    q.push_back(v);
  }
  EXPECT_EQ(n.get(), 1u);
  q.clear();
  for (std::uint64_t v = 0; v < Fifo<std::uint64_t>::kFirstCapacity; ++v) {
    q.push_back(v);
  }
  EXPECT_EQ(n.get(), 1u);  // clear() kept the buffer
}

TEST(Alloc, WorkloadConstructionAllocatesAtMostOncePerFlow) {
  constexpr std::size_t kFlows = 1000;
  // The workload's own vectors, its source and taps: independent of N.
  constexpr std::uint64_t kFixed = 64;
  sim::Engine eng;
  core::OsntDevice dev{eng};
  hw::connect(dev.port(kTxPort), dev.port(kRxPort));
  WorkloadConfig cfg;
  cfg.flows = kFlows;
  cfg.bottleneck_gbps = 5.0;

  std::optional<ClosedLoopWorkload> w;
  const AllocCount construction;
  w.emplace(eng, dev, cfg);
  const std::uint64_t constructed = construction.get();

  const AllocCount start;
  w->start();
  const std::uint64_t started = start.get();

  std::printf("%zu flows: construction %llu allocations, start() %llu\n",
              kFlows, static_cast<unsigned long long>(constructed),
              static_cast<unsigned long long>(started));
  EXPECT_LE(constructed, kFlows + kFixed);
}

}  // namespace
}  // namespace osnt::tcp

namespace osnt {
namespace {

/// Frames a test counts the allocations of; built before counting starts.
constexpr std::size_t kFrames = 100;

net::Packet udp_frame(std::uint64_t src_mac, std::uint64_t dst_mac) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(src_mac),
               net::MacAddr::from_index(dst_mac))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
            net::ipproto::kUdp)
      .udp(1024, 5001)
      .pad_to_frame(128)
      .build();
}

std::vector<net::Packet> udp_frames(std::size_t n) {
  std::vector<net::Packet> frames;
  frames.reserve(n);
  for (std::size_t i = 0; i < n; ++i) frames.push_back(udp_frame(1, 2));
  return frames;
}

TEST(Alloc, OpenFlowSwitchForwardsWithoutCopyingTheFrame) {
  using namespace openflow;
  sim::Engine eng;
  ControlChannel chan{eng};
  dut::OpenFlowSwitch sw{eng, chan};
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  std::vector<std::uint64_t> rx(sw.num_ports(), 0);
  for (std::size_t i = 0; i < sw.num_ports(); ++i) {
    hosts.push_back(std::make_unique<hw::EthPort>(eng));
    hw::connect(*hosts[i], sw.port(i));
    hosts[i]->rx().set_handler(
        [&rx, i](net::Packet&&, Picos, Picos) { ++rx[i]; });
  }
  // An ADD of the same match and priority replaces the rule in place.
  const auto install = [&](std::initializer_list<std::uint16_t> out_ports) {
    FlowMod fm;
    fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000101,
                                     net::ipproto::kUdp, 1024, 5001);
    for (const std::uint16_t port : out_ports)
      fm.actions.emplace_back(ActionOutput{port});
    chan.controller().send(fm);
    eng.run();
  };
  // One frame in on port 0 at a time, so no queue grows past the warm-up.
  const auto forward = [&](std::vector<net::Packet>& frames) {
    const AllocCount n;
    for (auto& f : frames) {
      (void)hosts[0]->tx().transmit(std::move(f));
      eng.run();
    }
    return n.get();
  };

  install({2});
  auto warm = udp_frames(1);
  auto frames = udp_frames(kFrames);
  (void)forward(warm);
  EXPECT_EQ(forward(frames), 0u);  // the one output takes the frame
  EXPECT_EQ(rx[1], kFrames + 1);
  EXPECT_EQ(rx[2], 0u);

  install({2, 3, 4});
  warm = udp_frames(1);
  frames = udp_frames(kFrames);
  (void)forward(warm);
  // Three outputs: two copies share the bytes, and the last takes the frame.
  EXPECT_EQ(forward(frames), 0u);
  EXPECT_EQ(sw.table_misses(), 0u);
  EXPECT_EQ(rx[0], 0u);
  EXPECT_EQ(rx[1], 2 * (kFrames + 1));
  EXPECT_EQ(rx[2], kFrames + 1);
  EXPECT_EQ(rx[3], kFrames + 1);
}

TEST(Alloc, FrameHopsCopyNoFrame) {
  sim::Engine eng;
  graph::Graph g{eng};
  g.emplace<graph::FifoQueueBlock>(eng, "fifo");
  g.emplace<graph::RedBlock>(eng, "red");
  g.emplace<graph::TokenBucketBlock>(eng, "tb");
  graph::DelayBerConfig wan_cfg;
  wan_cfg.delay = kPicosPerMicro;
  g.emplace<graph::DelayBerBlock>(eng, "wan", wan_cfg);
  g.emplace<graph::EcmpBlock>(eng, "ecmp");
  g.emplace<graph::MonitorBlock>(eng, "tap");
  dut::LegacySwitchConfig sw_cfg;
  sw_cfg.num_ports = 2;
  auto& sw = g.emplace<dut::LegacySwitch>(eng, "sw", sw_cfg);
  auto& sink = g.emplace<graph::SinkBlock>(eng, "sink");
  g.connect("fifo", 0, "red", 0);
  g.connect("red", 0, "tb", 0);
  g.connect("tb", 0, "wan", 0);
  g.connect("wan", 0, "ecmp", 0);
  g.connect("ecmp", 0, "tap", 0);
  g.connect("ecmp", 1, "tap", 0);
  g.connect("tap", 0, "sw", 0);
  g.connect("sw", 1, "sink", 0);
  g.start();
  sim::FrameSink& in = g.input("fifo", 0);

  // The switch learns MAC 2 on port 1 from a frame MAC 2 sends itself,
  // which it does not send back out that port (hairpin).
  g.input("sw", 1).on_frame(udp_frame(2, 2), 0, 0);
  eng.run();

  // One frame at a time, each once the last has reached the sink: no
  // queue, lane or table grows past what the warm-up frame made.
  const auto forward = [&](std::vector<net::Packet>& frames) {
    const AllocCount n;
    for (auto& f : frames) {
      f.tx_truth = eng.now();  // so the monitor's latency probe records it
      in.on_frame(std::move(f), eng.now(), eng.now());
      eng.run();
    }
    return n.get();
  };
  auto warm = udp_frames(1);
  auto frames = udp_frames(kFrames);
  (void)forward(warm);
  EXPECT_EQ(forward(frames), 0u);
  EXPECT_EQ(sink.frames_in(), kFrames + 1);
  EXPECT_EQ(g.total_drops(), 1u);  // the learning frame's hairpin
  EXPECT_EQ(sw.drops(), 1u);
  EXPECT_EQ(sw.frames_flooded(), 0u);
}

TEST(Alloc, BurstEmissionAllocatesNoFrame) {
  sim::Engine eng;
  graph::Graph g{eng};
  burst::BurstSourceConfig cfg;
  cfg.pattern.pattern = burst::Pattern::kOnOff;
  cfg.pattern.l4 = burst::L4::kTcpSyn;
  cfg.pattern.period = 10 * kPicosPerMicro;
  cfg.pattern.duty = 0.5;
  cfg.horizon = 2 * cfg.pattern.period;  // two waves
  auto& src = g.emplace<burst::BurstSourceBlock>(eng, "src", cfg);
  auto& sink = g.emplace<graph::SinkBlock>(eng, "sink");
  g.connect("src", 0, "sink", 0);
  g.start();
  // The first wave builds the templates and sizes the edge's lane.
  eng.run_until(cfg.pattern.period * 3 / 4);
  const std::uint64_t wave = sink.frames_in();
  ASSERT_GT(wave, 0u);
  const AllocCount n;
  eng.run();
  EXPECT_EQ(n.get(), 0u);  // each frame shares its template's bytes
  EXPECT_EQ(src.bursts_emitted(), 2u);
  EXPECT_EQ(sink.frames_in(), 2 * wave);
}

}  // namespace
}  // namespace osnt
