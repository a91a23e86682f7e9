// Graph API: the block library's per-block semantics (queueing, RED,
// policing/shaping, delay/BER, ECMP spreading, taps), the wiring error
// contract, and the claim that a DUT wrapped as a graph node behaves
// byte-identically to the same DUT cabled by hand.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/packet.hpp"

namespace osnt {
namespace {

/// External egress for tests: remembers every delivered frame and when its
/// last bit arrived.
struct Collector final : public sim::FrameSink {
  std::vector<net::Packet> pkts;
  std::vector<Picos> at;
  void on_frame(net::Packet&& pkt, Picos /*first_bit*/,
                Picos last_bit) override {
    pkts.push_back(std::move(pkt));
    at.push_back(last_bit);
  }
};

net::Packet make_udp(std::uint16_t src_port, std::size_t payload = 200) {
  net::PacketBuilder b;
  return b
      .eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 0, 2),
            net::ipproto::kUdp)
      .udp(src_port, 9000)
      .payload_random(payload, 42)
      .build();
}

/// Hand a frame to a graph input as if a link had just delivered it at `t`.
void inject(sim::FrameSink& in, net::Packet pkt, Picos t) {
  in.on_frame(std::move(pkt), t, t);
}

TEST(Graph, FifoQueueSerializesAndTailDrops) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::FifoQueueConfig cfg;
  cfg.rate_gbps = 10.0;
  cfg.queue_frames = 2;
  auto& q = g.emplace<graph::FifoQueueBlock>(eng, "q", cfg);
  Collector out;
  g.connect_output("q", 0, out);
  g.start();

  sim::FrameSink& in = g.input("q", 0);
  const net::Packet pkt = make_udp(1000);
  for (int i = 0; i < 5; ++i) inject(in, pkt, 0);
  eng.run();

  // Two slots (one serializing + one waiting); the other three tail-drop.
  EXPECT_EQ(out.pkts.size(), 2u);
  EXPECT_EQ(q.tail_drops(), 3u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.peak_depth(), 2u);
  EXPECT_EQ(q.frames_in(), 5u);
  EXPECT_EQ(q.frames_out(), 2u);
  EXPECT_EQ(q.drops(), 3u);

  // Departures are spaced by the store-and-forward serialization time.
  ASSERT_EQ(out.at.size(), 2u);
  const Picos air = net::serialization_time(pkt.line_len(), cfg.rate_gbps);
  EXPECT_EQ(out.at[0], air);
  EXPECT_EQ(out.at[1], 2 * air);
}

TEST(Graph, FifoQueueTieBetweenDepartureAndArrivalFollowsPushOrder) {
  // 64 B frames every 336 ns (2 Gb/s) into a one-frame 1 Gb/s queue: each
  // departure falls on the same picosecond as an arrival. The event pushed
  // first fires first. An arrival scheduled before the departure finds the
  // queue full and is tail-dropped; one scheduled after it is admitted.
  constexpr Picos kGap = 336'000;
  constexpr int kArrivals = 9;
  const auto run = [&](bool chained) {
    sim::Engine eng;
    graph::Graph g{eng};
    auto& q = g.emplace<graph::FifoQueueBlock>(
        eng, "q", graph::FifoQueueConfig{1.0, 1});
    Collector out;
    g.connect_output("q", 0, out);
    g.start();
    sim::FrameSink& in = g.input("q", 0);
    const net::Packet pkt = make_udp(1000, 18);
    EXPECT_EQ(net::serialization_time(pkt.line_len(), 1.0), 2 * kGap);
    std::function<void(int)> arrive = [&](int k) {
      inject(in, pkt, eng.now());
      // Chained: the next arrival is pushed after this one's departure.
      if (chained && k < kArrivals) {
        eng.schedule_in(kGap, [&arrive, k] { arrive(k + 1); });
      }
    };
    for (int k = 1; k <= (chained ? 1 : kArrivals); ++k) {
      eng.schedule_at(k * kGap, [&arrive, k] { arrive(k); });
    }
    eng.run();
    return std::make_pair(out.at, q.tail_drops());
  };

  // All arrivals pushed up front: arrivals 3, 6 and 9 lose their ties.
  EXPECT_EQ(run(false), std::make_pair(std::vector<Picos>{3 * kGap, 6 * kGap,
                                                          9 * kGap},
                                       std::uint64_t{6}));
  // Each arrival pushed by the one before: departures win every tie.
  EXPECT_EQ(run(true),
            std::make_pair(std::vector<Picos>{3 * kGap, 5 * kGap, 7 * kGap,
                                              9 * kGap, 11 * kGap},
                           std::uint64_t{4}));
}

TEST(Graph, RedForcesDropsAboveMaxThreshold) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::RedConfig cfg;
  cfg.rate_gbps = 10.0;
  cfg.queue_frames = 100;
  cfg.min_th = 1.0;
  cfg.max_th = 2.0;
  cfg.max_p = 1.0;
  cfg.weight = 1.0;  // average == instantaneous depth: deterministic ramp
  auto& red = g.emplace<graph::RedBlock>(eng, "aqm", cfg);
  Collector out;
  g.connect_output("aqm", 0, out);
  g.start();

  sim::FrameSink& in = g.input("aqm", 0);
  for (int i = 0; i < 50; ++i) inject(in, make_udp(2000), 0);
  eng.run();

  // With weight 1 the average IS the depth: frames 1–2 ramp it to
  // max_th, every later arrival is a forced drop — no lottery involved.
  EXPECT_EQ(red.forced_drops(), 48u);
  EXPECT_EQ(red.early_drops(), 0u);
  EXPECT_EQ(red.drops(), 48u);
  EXPECT_EQ(out.pkts.size(), 2u);
  EXPECT_EQ(red.tail_drops(), 0u);
}

TEST(Graph, RedDropsEarlyBetweenThresholds) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::RedConfig cfg;
  cfg.rate_gbps = 10.0;
  cfg.queue_frames = 1000;
  cfg.min_th = 1.0;
  cfg.max_th = 900.0;  // unreachably high: every drop is an early drop
  cfg.max_p = 0.5;
  cfg.weight = 1.0;
  cfg.seed = 7;
  auto& red = g.emplace<graph::RedBlock>(eng, "aqm", cfg);
  Collector out;
  g.connect_output("aqm", 0, out);
  g.start();

  sim::FrameSink& in = g.input("aqm", 0);
  for (int i = 0; i < 300; ++i) inject(in, make_udp(2000), 0);
  eng.run();

  EXPECT_GT(red.early_drops(), 0u);
  EXPECT_EQ(red.forced_drops(), 0u);
  EXPECT_EQ(red.tail_drops(), 0u);
  EXPECT_EQ(red.drops(), red.early_drops());
  EXPECT_EQ(out.pkts.size(), 300u - red.drops());
  EXPECT_GT(red.avg_depth(), cfg.min_th);
}

TEST(Graph, TokenBucketPolices) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::TokenBucketConfig cfg;
  cfg.rate_gbps = 0.001;  // refill is negligible within the test window
  cfg.burst_bytes = 2000;
  cfg.shape = false;
  auto& tb = g.emplace<graph::TokenBucketBlock>(eng, "police", cfg);
  Collector out;
  g.connect_output("police", 0, out);
  g.start();

  const net::Packet pkt = make_udp(3000, 800);  // line_len well under 2000
  sim::FrameSink& in = g.input("police", 0);
  for (int i = 0; i < 4; ++i) inject(in, pkt, 0);
  eng.run();

  // Bucket holds 2000 byte-tokens: exactly two ~850 B frames conform.
  EXPECT_EQ(tb.conforming(), 2u);
  EXPECT_EQ(tb.policed(), 2u);
  EXPECT_EQ(tb.shaped(), 0u);
  EXPECT_EQ(out.pkts.size(), 2u);
  EXPECT_EQ(tb.drops(), 2u);
}

TEST(Graph, TokenBucketShapesToRate) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::TokenBucketConfig cfg;
  cfg.rate_gbps = 1.0;
  cfg.burst_bytes = 2000;
  cfg.shape = true;
  auto& tb = g.emplace<graph::TokenBucketBlock>(eng, "shape", cfg);
  Collector out;
  g.connect_output("shape", 0, out);
  g.start();

  const net::Packet pkt = make_udp(4000, 800);
  sim::FrameSink& in = g.input("shape", 0);
  for (int i = 0; i < 6; ++i) inject(in, pkt, 0);
  eng.run();

  // Nothing is lost in shape mode; excess frames are delayed instead.
  EXPECT_EQ(out.pkts.size(), 6u);
  EXPECT_EQ(tb.policed(), 0u);
  EXPECT_EQ(tb.conforming() + tb.shaped(), 6u);
  EXPECT_GT(tb.shaped(), 0u);

  // Steady-state spacing approaches line_len / rate; order is FIFO.
  const double bytes_per_pico = cfg.rate_gbps / 8000.0;
  const auto ideal =
      static_cast<Picos>(static_cast<double>(pkt.line_len()) / bytes_per_pico);
  for (std::size_t i = 1; i < out.at.size(); ++i) {
    EXPECT_GE(out.at[i], out.at[i - 1]);  // conforming frames share t=0
  }
  const Picos tail_gap = out.at[5] - out.at[4];
  EXPECT_NEAR(static_cast<double>(tail_gap), static_cast<double>(ideal),
              static_cast<double>(ideal) * 0.01);
}

TEST(Graph, DelayBerShiftsArrivalAndCorrupts) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::DelayBerConfig cfg;
  cfg.delay = 3 * kPicosPerMicro;
  cfg.ber = 0.0;
  g.emplace<graph::DelayBerBlock>(eng, "wan", cfg);
  Collector out;
  g.connect_output("wan", 0, out);
  g.start();

  inject(g.input("wan", 0), make_udp(5000), 10 * kPicosPerNano);
  eng.run();
  ASSERT_EQ(out.pkts.size(), 1u);
  EXPECT_EQ(out.at[0], 10 * kPicosPerNano + 3 * kPicosPerMicro);
  EXPECT_FALSE(out.pkts[0].fcs_bad);

  // A near-1 BER makes the corruption lottery certain (p_hit rounds to
  // 1.0 over a whole frame): every frame is marked.
  graph::DelayBerConfig noisy;
  noisy.ber = 0.999999;
  auto& bad = g.emplace<graph::DelayBerBlock>(eng, "noise", noisy);
  Collector out2;
  g.connect_output("noise", 0, out2);
  for (int i = 0; i < 4; ++i) inject(g.input("noise", 0), make_udp(5001), 0);
  eng.run();
  EXPECT_EQ(bad.corrupted(), 4u);
  ASSERT_EQ(out2.pkts.size(), 4u);
  for (const auto& p : out2.pkts) EXPECT_TRUE(p.fcs_bad);
}

TEST(Graph, EcmpIsFlowCoherentAndSpreads) {
  sim::Engine eng;
  graph::Graph g{eng};
  graph::EcmpConfig cfg;
  cfg.fanout = 2;
  g.emplace<graph::EcmpBlock>(eng, "spray", cfg);
  auto& s0 = g.emplace<graph::SinkBlock>(eng, "s0");
  auto& s1 = g.emplace<graph::SinkBlock>(eng, "s1");
  g.connect("spray", 0, "s0", 0);
  g.connect("spray", 1, "s1", 0);
  g.start();

  sim::FrameSink& in = g.input("spray", 0);
  // Same 5-tuple repeatedly: must never split across paths.
  for (int i = 0; i < 10; ++i) inject(in, make_udp(6000), 0);
  eng.run();
  EXPECT_TRUE((s0.frames_in() == 10 && s1.frames_in() == 0) ||
              (s0.frames_in() == 0 && s1.frames_in() == 10))
      << "s0=" << s0.frames_in() << " s1=" << s1.frames_in();

  // Many distinct flows: both paths must see traffic.
  for (std::uint16_t p = 7000; p < 7032; ++p) inject(in, make_udp(p), 0);
  eng.run();
  EXPECT_GT(s0.frames_in(), 0u);
  EXPECT_GT(s1.frames_in(), 0u);
  EXPECT_EQ(s0.frames_in() + s1.frames_in(), 42u);
  EXPECT_EQ(g.total_frames_in(), 42u + 42u);  // spray + the two sinks
}

TEST(Graph, MonitorTapsWithoutModifying) {
  sim::Engine eng;
  graph::Graph g{eng};
  auto& mon = g.emplace<graph::MonitorBlock>(eng, "tap");
  Collector out;
  g.connect_output("tap", 0, out);
  g.start();

  net::Packet clean = make_udp(8000);
  net::Packet dirty = make_udp(8001);
  dirty.fcs_bad = true;
  const std::uint64_t expect_bytes = clean.wire_len() + dirty.wire_len();
  inject(g.input("tap", 0), clean, 0);
  inject(g.input("tap", 0), dirty, 0);
  eng.run();

  ASSERT_EQ(out.pkts.size(), 2u);
  EXPECT_EQ(mon.bytes(), expect_bytes);
  EXPECT_EQ(mon.fcs_errors(), 1u);
  EXPECT_EQ(mon.frame_bytes().count(), 2u);
  EXPECT_TRUE(out.pkts[1].fcs_bad);  // the tap forwards even bad frames
}

TEST(Graph, WiringErrorsAreHard) {
  sim::Engine eng;
  graph::Graph g{eng};
  g.emplace<graph::SinkBlock>(eng, "sink");
  g.emplace<graph::MonitorBlock>(eng, "tap");

  // Duplicate name.
  EXPECT_THROW(g.emplace<graph::SinkBlock>(eng, "sink"), graph::GraphError);
  // Unknown endpoints.
  EXPECT_THROW(g.connect("nope", 0, "sink", 0), graph::GraphError);
  EXPECT_THROW((void)g.input("nope", 0), graph::GraphError);
  EXPECT_THROW((void)g.at("nope"), graph::GraphError);
  EXPECT_EQ(g.find("nope"), nullptr);
  // Out-of-range ports: a sink has no outputs, one input.
  EXPECT_THROW(g.connect("sink", 0, "tap", 0), graph::GraphError);
  EXPECT_THROW((void)g.input("sink", 1), graph::GraphError);
  Collector out;
  // Double-claimed output.
  g.connect("tap", 0, "sink", 0);
  EXPECT_THROW(g.connect_output("tap", 0, out), graph::GraphError);
  // A block must be named.
  EXPECT_THROW(graph::SinkBlock(eng, ""), graph::GraphError);
  // Null add.
  EXPECT_THROW(g.add(nullptr), graph::GraphError);
}

TEST(Graph, UnwiredOutputCountsAsDrop) {
  sim::Engine eng;
  graph::Graph g{eng};
  auto& mon = g.emplace<graph::MonitorBlock>(eng, "tap");
  g.start();
  inject(g.input("tap", 0), make_udp(9000), 0);
  eng.run();
  EXPECT_EQ(mon.frames_in(), 1u);
  EXPECT_EQ(mon.frames_out(), 0u);
  EXPECT_EQ(mon.drops(), 1u);
  EXPECT_EQ(g.total_drops(), 1u);
}

TEST(Graph, LinkDelayCutLetsLaterFramesOvertake) {
  // Frames already in flight keep the 50 ns detour; frames carried after
  // the cut arrive first. They sort before the link's last in-flight frame
  // and so bypass its FIFO, yet a tie with an earlier frame still goes to
  // the frame carried first.
  struct Arrivals final : public sim::FrameSink {
    std::vector<std::uint64_t> ids;
    std::vector<std::pair<Picos, Picos>> bits;
    void on_frame(net::Packet&& pkt, Picos first_bit,
                  Picos last_bit) override {
      ids.push_back(pkt.id);
      bits.emplace_back(first_bit, last_bit);
    }
  };
  sim::Engine eng;
  sim::Link link(eng, 1'000);
  Arrivals sink;
  link.connect(sink);
  const auto carry = [&](std::uint64_t id, Picos tx_start) {
    net::Packet pkt = make_udp(1000, 18);
    pkt.id = id;
    link.carry(std::move(pkt), tx_start, tx_start + 100);
  };
  link.set_extra_delay(50'000);
  carry(1, 0);
  carry(2, 100);
  eng.run_until(10'000);
  link.set_extra_delay(0);
  carry(3, 10'000);  // overtakes 1 and 2
  carry(4, 50'000);  // ties with 1, was carried after it
  carry(5, 60'000);  // behind everything again
  eng.run();

  EXPECT_EQ(sink.ids, (std::vector<std::uint64_t>{3, 1, 4, 2, 5}));
  EXPECT_EQ(sink.bits, (std::vector<std::pair<Picos, Picos>>{
                           {11'000, 11'100},
                           {51'000, 51'100},
                           {51'000, 51'100},
                           {51'100, 51'200},
                           {61'000, 61'100}}));
}

}  // namespace
}  // namespace osnt
