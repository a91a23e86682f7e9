// Property and robustness tests: randomized round trips and "never
// crash on garbage" sweeps over the parsers and codecs.
#include <gtest/gtest.h>

#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/pcap.hpp"
#include "osnt/openflow/messages.hpp"
#include "osnt/tcp/flow.hpp"

namespace osnt {
namespace {

// ------------------------------------------------- parser never crashes

TEST(ParserFuzz, RandomBytesNeverCrash) {
  Rng rng{0xF422};
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.uniform_int(0, 200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const auto parsed = net::parse_packet(ByteSpan{junk.data(), junk.size()});
    if (parsed) {
      // Whatever was decoded must stay within the buffer.
      EXPECT_LE(parsed->payload_offset, junk.size() + 60);
    }
  }
}

TEST(ParserFuzz, TruncationsOfValidFrameNeverCrash) {
  net::PacketBuilder b;
  const net::Packet p =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .vlan(7)
          .ipv4(net::Ipv4Addr::of(10, 1, 2, 3), net::Ipv4Addr::of(10, 4, 5, 6),
                net::ipproto::kTcp)
          .tcp(80, 443)
          .payload_random(200, 1)
          .build();
  for (std::size_t len = 0; len <= p.size(); ++len) {
    const auto parsed = net::parse_packet(ByteSpan{p.data.data(), len});
    if (len < net::EthHeader::kSize) {
      EXPECT_FALSE(parsed);
    } else {
      ASSERT_TRUE(parsed);
    }
  }
}

// ----------------------------------------------- randomized build⇄parse

TEST(BuilderProperty, RandomizedUdpRoundTrip) {
  Rng rng{0xB00};
  for (int trial = 0; trial < 500; ++trial) {
    const auto src = static_cast<std::uint32_t>(rng());
    const auto dst = static_cast<std::uint32_t>(rng());
    const auto sport = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    const auto dport = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    const auto size = rng.uniform_int(64, 1518);
    const bool tagged = rng.chance(0.3);
    const auto vid = static_cast<std::uint16_t>(rng.uniform_int(1, 4094));

    net::PacketBuilder b;
    b.eth(net::MacAddr::from_index(rng()), net::MacAddr::from_index(rng()));
    if (tagged) b.vlan(vid);
    b.ipv4(net::Ipv4Addr{src}, net::Ipv4Addr{dst}, net::ipproto::kUdp)
        .udp(sport, dport)
        .pad_to_frame(size);
    const net::Packet p = b.build();

    EXPECT_EQ(p.wire_len(), size);
    const auto parsed = net::parse_packet(p.bytes());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->ipv4.src.v, src);
    EXPECT_EQ(parsed->ipv4.dst.v, dst);
    EXPECT_EQ(parsed->udp.src_port, sport);
    EXPECT_EQ(parsed->udp.dst_port, dport);
    EXPECT_EQ(parsed->vlan.has_value(), tagged);
    if (tagged) {
      EXPECT_EQ(parsed->vlan->vid, vid);
    }
    // Header checksum always verifies.
    const ByteSpan hdr{p.data.data() + parsed->l3_offset,
                       parsed->ipv4.header_len()};
    EXPECT_EQ(net::internet_checksum(hdr), 0u);
  }
}

// -------------------------------------------------- OF codec properties

openflow::OfMatch random_match(Rng& rng) {
  openflow::OfMatch m;
  m.wildcards = static_cast<std::uint32_t>(rng()) & openflow::wc::kAll;
  // Keep the prefix wildcard fields within their 0..63 encoding.
  m.in_port = static_cast<std::uint16_t>(rng());
  m.dl_src = net::MacAddr::from_index(rng());
  m.dl_dst = net::MacAddr::from_index(rng());
  m.dl_vlan = static_cast<std::uint16_t>(rng());
  m.dl_vlan_pcp = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
  m.dl_type = static_cast<std::uint16_t>(rng());
  m.nw_tos = static_cast<std::uint8_t>(rng());
  m.nw_proto = static_cast<std::uint8_t>(rng());
  m.nw_src = static_cast<std::uint32_t>(rng());
  m.nw_dst = static_cast<std::uint32_t>(rng());
  m.tp_src = static_cast<std::uint16_t>(rng());
  m.tp_dst = static_cast<std::uint16_t>(rng());
  return m;
}

TEST(OfCodecProperty, RandomFlowModsRoundTrip) {
  Rng rng{0x0F};
  for (int trial = 0; trial < 500; ++trial) {
    openflow::FlowMod fm;
    fm.match = random_match(rng);
    fm.cookie = rng();
    fm.command = static_cast<openflow::FlowModCommand>(rng.uniform_int(0, 4));
    fm.idle_timeout = static_cast<std::uint16_t>(rng());
    fm.hard_timeout = static_cast<std::uint16_t>(rng());
    fm.priority = static_cast<std::uint16_t>(rng());
    fm.buffer_id = static_cast<std::uint32_t>(rng());
    fm.out_port = static_cast<std::uint16_t>(rng());
    fm.flags = static_cast<std::uint16_t>(rng.uniform_int(0, 3));
    const auto n_actions = rng.uniform_int(0, 4);
    for (std::uint64_t a = 0; a < n_actions; ++a) {
      switch (rng.uniform_int(0, 2)) {
        case 0:  // decode refuses the reserved ports above OFPP_MAX
          fm.actions.emplace_back(openflow::ActionOutput{
              static_cast<std::uint16_t>(
                  rng.uniform_int(0, openflow::ofpp::kMax)),
              0xFFFF});
          break;
        case 1:
          fm.actions.emplace_back(openflow::ActionSetVlanVid{
              static_cast<std::uint16_t>(rng.uniform_int(0, 4095))});
          break;
        default:
          fm.actions.emplace_back(openflow::ActionEnqueue{
              static_cast<std::uint16_t>(rng()),
              static_cast<std::uint32_t>(rng())});
      }
    }
    const auto xid = static_cast<std::uint32_t>(rng());
    const Bytes wire = openflow::encode(fm, xid);
    const auto back = openflow::decode(ByteSpan{wire.data(), wire.size()});
    ASSERT_TRUE(back);
    EXPECT_EQ(back->xid, xid);
    const auto& fm2 = std::get<openflow::FlowMod>(back->msg);
    EXPECT_EQ(fm2.match, fm.match);
    EXPECT_EQ(fm2.cookie, fm.cookie);
    EXPECT_EQ(fm2.command, fm.command);
    EXPECT_EQ(fm2.priority, fm.priority);
    EXPECT_EQ(fm2.actions, fm.actions);
  }
}

TEST(OfCodecFuzz, RandomBytesNeverCrash) {
  Rng rng{0xDEC0DE};
  int decoded = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    Bytes junk(rng.uniform_int(0, 120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    // Bias some inputs toward plausibility so the deep paths run.
    if (!junk.empty() && rng.chance(0.5)) junk[0] = openflow::kOfVersion;
    if (junk.size() >= 4 && rng.chance(0.5))
      store_be16(junk.data() + 2, static_cast<std::uint16_t>(junk.size()));
    if (openflow::decode(ByteSpan{junk.data(), junk.size()})) ++decoded;
  }
  // A few random buffers will legitimately decode (e.g. hello frames).
  SUCCEED() << decoded << " random buffers decoded";
}

TEST(OfCodecFuzz, TruncatedRealMessagesNeverCrash) {
  Rng rng{0x7A};
  openflow::FlowMod fm;
  fm.match = random_match(rng);
  fm.actions = {openflow::ActionOutput{1}, openflow::ActionSetVlanVid{7}};
  const Bytes wire = openflow::encode(fm, 9);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(openflow::decode(ByteSpan{wire.data(), len}))
        << "decoded a truncation of length " << len;
  }
}

// --------------------------------------------------------- pcap property

TEST(PcapProperty, RandomRecordsRoundTripThroughDisk) {
  Rng rng{0xCA9};
  const std::string path = "/tmp/osnt_prop_" + std::to_string(::getpid()) +
                           ".pcap";
  std::vector<net::PcapRecord> written;
  {
    net::PcapWriter w{path, true};
    std::uint64_t t = 0;
    for (int i = 0; i < 200; ++i) {
      net::PcapRecord rec;
      t += rng.uniform_int(1, 1'000'000);
      rec.ts_nanos = t;
      rec.data.resize(rng.uniform_int(20, 1514));
      for (auto& b : rec.data) b = static_cast<std::uint8_t>(rng());
      rec.orig_len = static_cast<std::uint32_t>(rec.data.size());
      w.write(rec.ts_nanos, ByteSpan{rec.data.data(), rec.data.size()});
      written.push_back(std::move(rec));
    }
  }
  const auto back = net::PcapReader::read_all(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), written.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].ts_nanos, written[i].ts_nanos);
    EXPECT_EQ(back[i].data, written[i].data);
  }
}

// ------------------------------------------------- RTO estimator (RFC 6298)

// The retransmission timer under any sample stream must stay inside
// [min_rto, max_rto], back off monotonically between samples, and be a
// pure function of its input sequence (no hidden wall-clock state).

constexpr Picos kMinRto = kPicosPerMilli;
constexpr Picos kMaxRto = 250 * kPicosPerMilli;

/// Drive an estimator with a seeded mix of RTT samples and timer fires;
/// returns the sequence of rto() values observed after each step.
std::vector<Picos> rto_walk(std::uint64_t seed, int steps) {
  Rng rng{seed};
  tcp::RtoEstimator est{kMinRto, kMaxRto};
  std::vector<Picos> out;
  out.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    if (rng.uniform_int(0, 2) == 0) {
      est.backoff();  // a timer fire
    } else {
      // RTTs from 100 ns to ~80 ms: spans both clamp regimes.
      est.sample(static_cast<Picos>(
          rng.uniform_int(100, 80'000'000) * kPicosPerNano));
    }
    out.push_back(est.rto());
  }
  return out;
}

TEST(RtoProperty, BoundedForRandomSampleAndBackoffStreams) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const Picos rto : rto_walk(seed, 500)) {
      EXPECT_GE(rto, kMinRto) << "seed " << seed;
      EXPECT_LE(rto, kMaxRto) << "seed " << seed;
    }
  }
}

TEST(RtoProperty, BackoffIsMonotoneUntilTheCap) {
  Rng rng{7};
  for (int trial = 0; trial < 50; ++trial) {
    tcp::RtoEstimator est{kMinRto, kMaxRto};
    const auto warmup = rng.uniform_int(0, 5);
    for (std::uint64_t i = 0; i < warmup; ++i) {
      est.sample(static_cast<Picos>(
          rng.uniform_int(1000, 5'000'000) * kPicosPerNano));
    }
    Picos prev = est.rto();
    for (int fire = 0; fire < 12; ++fire) {
      est.backoff();
      const Picos cur = est.rto();
      EXPECT_GE(cur, prev);  // doubles (or saturates), never shrinks
      EXPECT_LE(cur, kMaxRto);
      prev = cur;
    }
    EXPECT_EQ(prev, kMaxRto);  // 12 unanswered fires always saturate
    // A fresh RTT sample resets the backoff below the cap.
    est.sample(kPicosPerMilli);
    EXPECT_LT(est.rto(), kMaxRto);
  }
}

TEST(RtoProperty, IdenticalAcrossRerunsForFixedSeed) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(rto_walk(seed, 300), rto_walk(seed, 300)) << "seed " << seed;
  }
  EXPECT_NE(rto_walk(1, 300), rto_walk(2, 300));
}

TEST(RtoProperty, FirstSampleSeedsSrttPerRfc6298) {
  tcp::RtoEstimator est{kMinRto, kMaxRto};
  EXPECT_EQ(est.rto(), kMinRto);  // no sample yet: conservative floor
  const Picos rtt = 10 * kPicosPerMilli;
  est.sample(rtt);
  EXPECT_EQ(est.srtt(), rtt);
  EXPECT_EQ(est.rttvar(), rtt / 2);
  // RTO = SRTT + 4*RTTVAR = 3*RTT here (granularity term is negligible).
  EXPECT_EQ(est.rto(), 3 * rtt);
}

}  // namespace
}  // namespace osnt
