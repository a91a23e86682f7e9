// Conformance suite for the pluggable congestion controllers plus
// sender-side (tcp::Flow) unit checks. Every controller must satisfy the
// same contract: exponential window growth while the pipe is unprobed,
// a strict window reduction on loss, and a near-collapse on RTO — the
// properties the closed-loop acceptance tests then observe end to end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "osnt/net/parser.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/congestion.hpp"
#include "osnt/tcp/flow.hpp"

namespace osnt::tcp {
namespace {

constexpr std::uint32_t kMss = 1448;
constexpr Picos kRtt = kPicosPerMilli;  // 1 ms synthetic path

/// Deliver one round of per-segment ACKs: `cwnd/mss` ACKs of one MSS
/// each, the first flagged round_start. `rate_bps` is the delivery-rate
/// sample carried by every ACK (BBR's model input; loss-based controllers
/// ignore it). Returns the sim-time cursor after the round.
Picos ack_one_round(CongestionControl& cc, Picos now, double rate_bps,
                    std::uint64_t inflight) {
  const std::uint64_t segs = std::max<std::uint64_t>(cc.cwnd_bytes() / kMss, 1);
  for (std::uint64_t i = 0; i < segs; ++i) {
    AckEvent ev;
    ev.now = now;
    ev.bytes_acked = kMss;
    ev.bytes_in_flight = inflight;
    ev.rtt = kRtt;
    ev.delivery_rate_bps = rate_bps;
    ev.round_start = i == 0;
    cc.on_ack(ev);
    now += kRtt / static_cast<Picos>(segs);
  }
  return now;
}

class CcConformance : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] static std::unique_ptr<CongestionControl> make() {
    CcConfig cfg;
    cfg.mss = kMss;
    return make_congestion_control(GetParam(), cfg);
  }
};

TEST_P(CcConformance, FactoryNameRoundTrips) {
  EXPECT_STREQ(make()->name(), GetParam());
}

TEST_P(CcConformance, StartsAtInitialWindow) {
  EXPECT_EQ(make()->cwnd_bytes(), std::uint64_t{10} * kMss);
}

TEST_P(CcConformance, SlowStartDoublesPerRound) {
  // While the pipe is unprobed every controller must grow the window
  // ~2x per round trip: byte-counted slow start for NewReno/Cubic, the
  // 2/ln2 startup gain for BbrLite (whose bandwidth samples here double
  // every round, as they do on a real uncongested path).
  auto cc = make();
  Picos now = kPicosPerMilli;
  double rate = 2.5e9;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t before = cc->cwnd_bytes();
    now = ack_one_round(*cc, now, rate, /*inflight=*/before);
    EXPECT_GE(cc->cwnd_bytes(), before + before * 9 / 10)
        << GetParam() << " round " << round;
    rate *= 2.0;
  }
}

TEST_P(CcConformance, LossStrictlyReducesWindow) {
  auto cc = make();
  Picos now = kPicosPerMilli;
  now = ack_one_round(*cc, now, 2.5e9, cc->cwnd_bytes());
  now = ack_one_round(*cc, now, 5e9, cc->cwnd_bytes());
  const std::uint64_t before = cc->cwnd_bytes();
  cc->on_loss(now, /*bytes_in_flight=*/before);
  EXPECT_LT(cc->cwnd_bytes(), before) << GetParam();
  EXPECT_GE(cc->cwnd_bytes(), kMss) << GetParam();
}

TEST_P(CcConformance, RtoCollapsesWindow) {
  auto cc = make();
  Picos now = kPicosPerMilli;
  now = ack_one_round(*cc, now, 2.5e9, cc->cwnd_bytes());
  now = ack_one_round(*cc, now, 5e9, cc->cwnd_bytes());
  const std::uint64_t before = cc->cwnd_bytes();
  cc->on_rto(now);
  // Loss-based controllers restart from one segment; BbrLite floors at
  // its 4-packet minimum. Either way the window collapses to a handful
  // of segments and sits strictly below the pre-RTO value.
  EXPECT_LE(cc->cwnd_bytes(), std::uint64_t{4} * kMss) << GetParam();
  EXPECT_LT(cc->cwnd_bytes(), before) << GetParam();
}

TEST_P(CcConformance, RecoversGrowthAfterRto) {
  auto cc = make();
  Picos now = kPicosPerMilli;
  now = ack_one_round(*cc, now, 2.5e9, cc->cwnd_bytes());
  cc->on_rto(now);
  const std::uint64_t floor = cc->cwnd_bytes();
  for (int round = 0; round < 4; ++round) {
    now = ack_one_round(*cc, now, 5e9, cc->cwnd_bytes());
  }
  EXPECT_GT(cc->cwnd_bytes(), floor) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Tcp, CcConformance,
                         ::testing::Values("newreno", "cubic", "bbr"));

TEST(TcpCc, FactoryRejectsUnknownName) {
  EXPECT_THROW(make_congestion_control("vegas", CcConfig{}),
               std::invalid_argument);
}

TEST(TcpCc, BbrConvergesToOfferedRateAndCyclesNearIt) {
  // Constant delivery-rate samples at B must drive the windowed-max
  // estimate to exactly B: after startup detects the plateau (3 rounds
  // without 1.25x growth) and drain empties the queue, the pacing rate
  // must stay inside the probe_bw gain envelope [0.75B, 1.25B] and the
  // window near cwnd_gain * BDP.
  CcConfig cfg;
  cfg.mss = kMss;
  const auto cc = make_congestion_control("bbr", cfg);
  const double bps = 2e9;
  const std::uint64_t bdp = static_cast<std::uint64_t>(
      bps * static_cast<double>(kRtt) / kPicosPerSec / 8.0);
  Picos now = kPicosPerMilli;
  for (int round = 0; round < 24; ++round) {
    // Report a drained pipe (inflight at half BDP) so drain mode can exit.
    now = ack_one_round(*cc, now, bps, bdp / 2);
  }
  const double pacing = cc->pacing_rate_bps();
  EXPECT_GE(pacing, 0.75 * bps * 0.999);
  EXPECT_LE(pacing, 1.25 * bps * 1.001);
  EXPECT_GE(cc->cwnd_bytes(), 2 * bdp - 2 * kMss);
  EXPECT_LE(cc->cwnd_bytes(), 2 * bdp + 2 * kMss);
}

TEST(TcpCc, BbrLossIsNotACongestionCollapse) {
  // BBRv1 keeps its model on loss: the window caps near inflight (7/8)
  // instead of halving, and never falls below the 4-packet floor.
  CcConfig cfg;
  cfg.mss = kMss;
  const auto cc = make_congestion_control("bbr", cfg);
  const std::uint64_t before = cc->cwnd_bytes();
  cc->on_loss(kPicosPerMilli, /*bytes_in_flight=*/2 * kMss);
  EXPECT_EQ(cc->cwnd_bytes(), std::uint64_t{4} * kMss);
  EXPECT_LT(cc->cwnd_bytes(), before);
}

// ------------------------------------------------------------ tcp::Flow

struct EmittedFrames {
  std::vector<net::Packet> frames;
  bool accept = true;
};

FlowConfig flow_config() {
  FlowConfig fc;
  fc.flow_id = 1;
  fc.src_mac = net::MacAddr::from_index(1);
  fc.dst_mac = net::MacAddr::from_index(2);
  fc.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  fc.dst_ip = net::Ipv4Addr::of(10, 0, 1, 1);
  fc.src_port = 40000;
  fc.dst_port = 50000;
  fc.seed = 42;
  return fc;
}

TEST(TcpFlow, StartSendsInitialWindowOfWellFormedFrames) {
  sim::Engine eng;
  EmittedFrames sink;
  FlowTelemetry tel;
  Flow flow{eng, flow_config(), tel, [&sink](net::Packet&& p) {
              if (sink.accept) sink.frames.push_back(std::move(p));
              return sink.accept;
            }};
  flow.start();  // emission is synchronous; nothing to pump
  ASSERT_EQ(sink.frames.size(), 10u);  // IW10
  std::uint32_t expect_seq = flow.isn();
  for (const net::Packet& pkt : sink.frames) {
    const auto parsed = net::parse_packet(pkt.bytes());
    ASSERT_TRUE(parsed);
    ASSERT_EQ(parsed->l4, net::L4Kind::kTcp);
    EXPECT_EQ(parsed->tcp.src_port, 40000);
    EXPECT_EQ(parsed->tcp.dst_port, 50000);
    EXPECT_EQ(parsed->tcp.seq, expect_seq);
    expect_seq += kMss;
    // 1448 MSS + 32 B TCP header (timestamps) + 20 IP + 14 eth; the
    // 4-byte FCS exists only on the wire, not in the stored frame.
    EXPECT_EQ(pkt.size(), 1514u);
  }
  EXPECT_EQ(flow.stats().segs_sent, 10u);
  EXPECT_EQ(flow.bytes_in_flight(), std::uint64_t{10} * kMss);
}

TEST(TcpFlow, ThreeDupAcksTriggerFastRetransmit) {
  sim::Engine eng;
  EmittedFrames sink;
  FlowTelemetry tel;
  Flow flow{eng, flow_config(), tel, [&sink](net::Packet&& p) {
              sink.frames.push_back(std::move(p));
              return true;
            }};
  flow.start();
  const std::size_t sent = sink.frames.size();
  const std::uint64_t cwnd_before = flow.cwnd_bytes();

  net::TcpHeader ack;
  ack.flags = net::TcpFlags::kAck;
  ack.ack = flow.isn();  // acks nothing: every arrival is a duplicate
  for (int i = 0; i < 4; ++i) {
    flow.on_ack(ack, /*peer_tsval=*/0, /*tsecr=*/0, eng.now());
  }
  EXPECT_EQ(flow.stats().fast_retx, 1u);
  EXPECT_EQ(flow.stats().retransmits, 1u);
  EXPECT_GE(flow.stats().dup_acks, 3u);
  EXPECT_EQ(flow.stats().cwnd_reductions, 1u);
  EXPECT_LT(flow.cwnd_bytes(), cwnd_before);
  ASSERT_GT(sink.frames.size(), sent);
  // The retransmission resends the first unacked segment.
  const auto parsed = net::parse_packet(sink.frames[sent].bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->tcp.seq, flow.isn());
}

TEST(TcpFlow, SilentLossFiresBackedOffRtosAndGoesBackN) {
  sim::Engine eng;
  std::size_t emitted = 0;
  FlowConfig fc = flow_config();
  fc.min_rto = kPicosPerMilli;
  fc.max_rto = 8 * kPicosPerMilli;
  FlowTelemetry tel;
  Flow flow{eng, fc, tel, [&emitted](net::Packet&&) {
              ++emitted;
              return true;  // accepted by the queue, dropped by the wire
            }};
  flow.start();
  eng.run_until(40 * kPicosPerMilli);
  // No ACK ever arrives: the RTO must fire repeatedly with exponential
  // backoff bounded by max_rto (40 ms of 1,2,4,8,8,... ms fires).
  EXPECT_GE(flow.stats().rto_fires, 4u);
  EXPECT_LE(flow.stats().rto_fires, 8u);
  EXPECT_GT(flow.stats().retransmits, 0u);
  EXPECT_LE(flow.current_rto(), fc.max_rto);
  // Go-back-N: after each fire the flow restarts from snd_una.
  EXPECT_EQ(flow.stats().bytes_acked, 0u);
}

TEST(TcpFlow, AckBeyondSndNxtAfterRtoDoesNotDeadlock) {
  // Regression: an RTO rolls snd_nxt back to snd_una (go-back-N) while
  // the original transmissions are still in flight; their cumulative ACK
  // then lands beyond snd_nxt. bytes_in_flight must clamp to zero rather
  // than underflow to ~2^64 — the underflow closed the window forever
  // and left no timer armed (the new-data path had just cancelled the
  // RTO), deadlocking the flow.
  sim::Engine eng;
  EmittedFrames sink;
  FlowConfig fc = flow_config();
  fc.min_rto = kPicosPerMilli;
  FlowTelemetry tel;
  Flow flow{eng, fc, tel, [&sink](net::Packet&& p) {
              sink.frames.push_back(std::move(p));
              return true;
            }};
  flow.start();  // 10 segments in flight, none ACKed yet
  eng.run_until(2 * kPicosPerMilli);
  ASSERT_GE(flow.stats().rto_fires, 1u);  // snd_nxt rolled back to 0

  const std::size_t sent_before = sink.frames.size();
  net::TcpHeader ack;
  ack.flags = net::TcpFlags::kAck;
  ack.ack = flow.isn() + 5 * kMss;  // delayed ACK of the original sends
  flow.on_ack(ack, /*peer_tsval=*/0, /*tsecr=*/0, eng.now());
  EXPECT_EQ(flow.stats().bytes_acked, std::uint64_t{5} * kMss);
  EXPECT_LE(flow.bytes_in_flight(), flow.cwnd_bytes());  // no underflow
  ASSERT_GT(sink.frames.size(), sent_before);  // the window reopened
  // Sending resumes at the ACKed offset, not at the stale snd_nxt.
  const auto parsed = net::parse_packet(sink.frames[sent_before].bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->tcp.seq, flow.isn() + 5 * kMss);
  // The flow stays live: the re-armed RTO keeps recovering the tail.
  eng.run_until(eng.now() + 10 * kPicosPerMilli);
  EXPECT_GT(sink.frames.size(), sent_before + 1);
}

TEST(TcpFlow, CumulativeAckAdvancesAndSamplesRtt) {
  sim::Engine eng;
  EmittedFrames sink;
  FlowTelemetry tel;
  Flow flow{eng, flow_config(), tel, [&sink](net::Packet&& p) {
              sink.frames.push_back(std::move(p));
              return true;
            }};
  flow.start();
  const Picos rtt = 2 * kPicosPerMicro;

  // Echo the first segment's tsval back after one synthetic RTT.
  const auto first = net::parse_packet(sink.frames.front().bytes());
  ASSERT_TRUE(first);
  net::TcpHeader ack;
  ack.flags = net::TcpFlags::kAck;
  ack.ack = flow.isn() + 2 * kMss;
  const std::uint32_t sent_tsval =
      static_cast<std::uint32_t>(eng.now() / kPicosPerNano);
  flow.on_ack(ack, /*peer_tsval=*/7, /*tsecr=*/sent_tsval - 2,
              eng.now() + rtt);
  EXPECT_EQ(flow.stats().bytes_acked, std::uint64_t{2} * kMss);
  EXPECT_EQ(flow.stats().acks_received, 1u);
  EXPECT_GT(flow.srtt(), 0);
  // Acking 2 segments grows cwnd by 2 MSS (slow start) and try_send
  // refills the window: 8 left in flight + 4 fresh = 12 MSS.
  EXPECT_EQ(flow.bytes_in_flight(), std::uint64_t{12} * kMss);
  EXPECT_EQ(flow.stats().segs_sent, 14u);
}

TEST(TcpFlow, ByteLimitedFlowFinishes) {
  sim::Engine eng;
  EmittedFrames sink;
  FlowConfig fc = flow_config();
  fc.bytes_to_send = 3 * kMss;
  FlowTelemetry tel;
  Flow flow{eng, fc, tel, [&sink](net::Packet&& p) {
              sink.frames.push_back(std::move(p));
              return true;
            }};
  flow.start();
  EXPECT_EQ(sink.frames.size(), 3u);
  net::TcpHeader ack;
  ack.flags = net::TcpFlags::kAck;
  ack.ack = flow.isn() + 3 * kMss;
  flow.on_ack(ack, 0, 0, eng.now() + kPicosPerMicro);
  EXPECT_TRUE(flow.done());
  EXPECT_EQ(flow.bytes_in_flight(), 0u);
}

TEST(TcpFlow, RejectedEmitsAreCountedAndRecovered) {
  sim::Engine eng;
  EmittedFrames sink;
  sink.accept = false;  // bottleneck queue refuses everything
  FlowTelemetry tel;
  Flow flow{eng, flow_config(), tel, [&sink](net::Packet&& p) {
              if (sink.accept) sink.frames.push_back(std::move(p));
              return sink.accept;
            }};
  flow.start();
  EXPECT_GT(flow.stats().emit_rejects, 0u);
  // The refused segments stay un-acked; the RTO path owns recovery.
  sink.accept = true;
  eng.run_until(5 * kPicosPerMilli);
  EXPECT_GT(flow.stats().rto_fires, 0u);
  EXPECT_FALSE(sink.frames.empty());
}

TEST(TcpFlow, IsnDerivesFromSeedDeterministically) {
  sim::Engine eng;
  FlowConfig fc = flow_config();
  FlowTelemetry tel;
  auto emit = [](net::Packet&&) { return true; };
  Flow a{eng, fc, tel, emit};
  Flow b{eng, fc, tel, emit};
  EXPECT_EQ(a.isn(), b.isn());
  fc.seed = 43;
  Flow c{eng, fc, tel, emit};
  EXPECT_NE(a.isn(), c.isn());
}

}  // namespace
}  // namespace osnt::tcp
