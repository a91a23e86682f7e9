// net::FrameBuf: copies share one block, and a write copies a shared
// block first, so no frame ever sees another's writes.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "osnt/dut/legacy_switch.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::net {
namespace {

FrameBuf counting(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i);
  return FrameBuf{ByteSpan{b}};
}

TEST(FrameBuf, CopySharesTheBlock) {
  const FrameBuf a = counting(60);
  EXPECT_FALSE(a.shared());
  const FrameBuf b = a;
  EXPECT_TRUE(a.shared());
  EXPECT_TRUE(b.shared());
  EXPECT_EQ(a.data(), b.data());  // const access copies nothing
  EXPECT_EQ(b.size(), 60u);
  const Packet p{a};
  const Packet q = p;
  EXPECT_EQ(p.bytes().data(), q.bytes().data());
}

TEST(FrameBuf, WriteThroughEitherCopyLeavesTheOtherIntact) {
  const FrameBuf original = counting(60);
  FrameBuf a = original;
  FrameBuf b = original;
  a[3] = 0xAA;         // non-const operator[]
  b.data()[4] = 0xBB;  // non-const data()
  EXPECT_EQ(original, counting(60));
  EXPECT_EQ(a[3], 0xAA);
  EXPECT_EQ(a[4], 4);
  EXPECT_EQ(b[3], 3);
  EXPECT_EQ(b[4], 0xBB);
  EXPECT_NE(a.data(), original.data());
  EXPECT_NE(b.data(), original.data());
  EXPECT_FALSE(original.shared());  // both writers left the block

  Packet p{original};
  const Packet q = p;
  p.mut_bytes()[0] = 0xCC;
  EXPECT_EQ(q.bytes()[0], 0);
  EXPECT_EQ(p.bytes()[0], 0xCC);

  // A sole owner writes in place.
  FrameBuf solo = counting(8);
  const std::uint8_t* const before = solo.data();
  solo[0] = 7;
  EXPECT_EQ(static_cast<const FrameBuf&>(solo).data(), before);
}

TEST(FrameBuf, MovedFromFrameIsEmpty) {
  FrameBuf a = counting(60);
  const FrameBuf b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b, counting(60));
  EXPECT_FALSE(b.shared());

  FrameBuf c = counting(4);
  c = FrameBuf{b};
  FrameBuf d;
  d = std::move(c);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(d, b);

  Packet p{counting(60)};
  const Packet q = std::move(p);
  EXPECT_TRUE(p.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(q.size(), 60u);
}

TEST(FrameBuf, ZeroFilledAndCopiedConstruction) {
  const FrameBuf z(5);
  EXPECT_EQ(z.size(), 5u);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 0);
  EXPECT_EQ(FrameBuf{}, FrameBuf{ByteSpan{}});
  EXPECT_NE(counting(4), counting(5));
}

// Each thread writes its own copy of one frame, then destroys it: the
// reference count and the copy before the write must not race.
TEST(FrameBuf, CopiesWrittenAndDestroyedOnTwoThreads) {
  for (int round = 0; round < 200; ++round) {
    FrameBuf mine = counting(64);
    FrameBuf theirs = mine;
    std::thread other([f = std::move(theirs)]() mutable {
      f[0] = 0xEE;
      EXPECT_EQ(f[1], 1);
      f = FrameBuf{};
    });
    mine[1] = 0xDD;
    EXPECT_EQ(mine[0], 0);
    mine = FrameBuf{};
    other.join();
  }
}

// A legacy switch floods one frame to two egress edges; a bit error on
// one edge must not reach the frame that leaves by the other.
TEST(FrameBuf, FloodedCopyKeepsItsBytesWhenTheOtherTakesABitError) {
  struct Recorder final : sim::FrameSink {
    std::vector<Packet> got;
    void on_frame(Packet&& pkt, Picos, Picos) override {
      got.push_back(std::move(pkt));
    }
  };
  sim::Engine eng;
  graph::Graph g{eng};
  dut::LegacySwitchConfig sw_cfg;
  sw_cfg.num_ports = 3;
  g.emplace<dut::LegacySwitch>(eng, "sw", sw_cfg);
  graph::DelayBerConfig ber_cfg;
  ber_cfg.ber = 0.1;  // every frame is hit (validate refuses 1)
  auto& noisy = g.emplace<graph::DelayBerBlock>(eng, "noisy", ber_cfg);
  g.connect("sw", 1, "noisy", 0);
  Recorder hit, clean;
  g.connect_output("noisy", 0, hit);
  g.connect_output("sw", 2, clean);
  g.start();

  PacketBuilder b;
  const Packet sent =
      b.eth(MacAddr::from_index(1), MacAddr::from_index(99))  // unknown
          .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
                ipproto::kUdp)
          .udp(1024, 5001)
          .pad_to_frame(256)
          .build();
  const Bytes want = to_bytes(sent.bytes());
  g.input("sw", 0).on_frame(Packet{sent}, 0, 0);
  eng.run();

  ASSERT_EQ(noisy.corrupted(), 1u);
  ASSERT_EQ(hit.got.size(), 1u);
  ASSERT_EQ(clean.got.size(), 1u);
  EXPECT_TRUE(hit.got[0].fcs_bad);
  EXPECT_NE(to_bytes(hit.got[0].bytes()), want);
  EXPECT_FALSE(clean.got[0].fcs_bad);
  EXPECT_EQ(to_bytes(clean.got[0].bytes()), want);
  EXPECT_EQ(to_bytes(sent.bytes()), want);
}

}  // namespace
}  // namespace osnt::net
