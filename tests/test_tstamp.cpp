// Timestamping subsystem: format, oscillator drift, GPS discipline servo,
// packet embedding. These tests pin the paper's precision claims.
#include <gtest/gtest.h>

#include <cmath>

#include "osnt/net/builder.hpp"
#include "osnt/tstamp/clock.hpp"
#include "osnt/tstamp/embed.hpp"
#include "osnt/tstamp/gps.hpp"
#include "osnt/tstamp/oscillator.hpp"
#include "osnt/tstamp/timestamp.hpp"

namespace osnt::tstamp {
namespace {

// -------------------------------------------------------------- Timestamp

TEST(Timestamp, FixedPointRoundTrip) {
  const Timestamp t = Timestamp::from_seconds(1.5);
  EXPECT_EQ(t.whole_seconds(), 1u);
  EXPECT_EQ(t.fraction(), 0x80000000u);
  EXPECT_DOUBLE_EQ(t.to_seconds(), 1.5);
}

TEST(Timestamp, DeltaNanos) {
  const Timestamp a = Timestamp::from_seconds(2.000001);
  const Timestamp b = Timestamp::from_seconds(2.0);
  EXPECT_NEAR(delta_nanos(a, b), 1000.0, 0.5);
  EXPECT_NEAR(delta_nanos(b, a), -1000.0, 0.5);
}

TEST(Timestamp, FormatResolutionBelowTick) {
  // The 32.32 format resolves ~233 ps — finer than the 6.25 ns tick, so
  // the tick (not the format) limits precision, as in the hardware.
  const Timestamp a = Timestamp::from_raw(0);
  const Timestamp b = Timestamp::from_raw(1);
  EXPECT_LT(delta_nanos(b, a), kTickNanos);
  EXPECT_NEAR(delta_nanos(b, a), 0.2328, 0.001);
}

// -------------------------------------------------------------- Oscillator

TEST(Oscillator, PerfectClockCountsNominal) {
  Oscillator osc;  // 160 MHz, no error
  EXPECT_EQ(osc.ticks_at(kPicosPerSec), 160'000'000u);
}

TEST(Oscillator, PpmOffsetShowsUp) {
  OscillatorConfig cfg;
  cfg.ppm_offset = 10.0;  // +10 ppm fast
  Oscillator osc{cfg};
  const auto ticks = osc.ticks_at(kPicosPerSec);
  EXPECT_NEAR(static_cast<double>(ticks), 160'000'000.0 * (1.0 + 10e-6), 20.0);
}

TEST(Oscillator, MonotonicQueries) {
  OscillatorConfig cfg;
  cfg.random_walk_ppm = 1.0;
  Oscillator osc{cfg};
  std::uint64_t prev = 0;
  for (int i = 1; i <= 100; ++i) {
    const auto t = osc.ticks_at(i * 10 * kPicosPerMilli);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Oscillator, QueryInPastIsClamped) {
  Oscillator osc;
  const auto a = osc.ticks_at(kPicosPerSec);
  const auto b = osc.ticks_at(kPicosPerSec / 2);  // earlier: clamped
  EXPECT_EQ(a, b);
}

// -------------------------------------------------------------------- GPS

TEST(Gps, PpsNearSecondBoundaries) {
  GpsConfig cfg;
  cfg.jitter_rms = 30 * kPicosPerNano;
  GpsModel gps{cfg};
  Picos prev = 0;
  for (int k = 1; k <= 10; ++k) {
    const auto edge = gps.next_pps_after(prev);
    ASSERT_TRUE(edge);
    EXPECT_NEAR(static_cast<double>(*edge),
                static_cast<double>(k) * kPicosPerSec,
                static_cast<double>(kPicosPerNano) * 200);
    prev = *edge;
  }
}

TEST(Gps, DisconnectedYieldsNothing) {
  GpsConfig cfg;
  cfg.connected = false;
  GpsModel gps{cfg};
  EXPECT_FALSE(gps.next_pps_after(0));
}

TEST(Gps, ZeroJitterIsExact) {
  GpsConfig cfg;
  cfg.jitter_rms = 0;
  GpsModel gps{cfg};
  EXPECT_EQ(*gps.next_pps_after(0), kPicosPerSec);
  EXPECT_EQ(*gps.next_pps_after(kPicosPerSec), 2 * kPicosPerSec);
}

// --------------------------------------------------------- DisciplinedClock

TEST(Clock, PerfectOscillatorTracksTruth) {
  GpsModel gps;  // default 30 ns PPS jitter feeds into the servo
  DisciplinedClock clk{gps};
  for (int i = 1; i <= 20; ++i) {
    const Picos t = i * 100 * kPicosPerMilli;
    // Bounded by the GPS jitter the servo chases, not by the tick.
    EXPECT_NEAR(clk.now(t).to_nanos(), to_nanos(t), 200.0);
  }
}

TEST(Clock, UndisciplinedDriftGrowsLinearly) {
  GpsModel gps;
  ClockConfig cfg;
  cfg.discipline = false;
  cfg.osc.ppm_offset = 20.0;
  DisciplinedClock clk{gps, cfg};
  // After 10 s a 20 ppm clock is ~200 µs off.
  const double err = clk.error_nanos(10 * kPicosPerSec);
  EXPECT_NEAR(err, 200'000.0, 2'000.0);
}

TEST(Clock, GpsDisciplineBoundsError) {
  GpsConfig gcfg;
  gcfg.jitter_rms = 30 * kPicosPerNano;
  GpsModel gps{gcfg};
  ClockConfig cfg;
  cfg.osc.ppm_offset = 20.0;
  // Crystal-grade stability (~1e-8/sqrt(s)); a 1 Hz servo cannot bound a
  // much worse oscillator below 1 µs.
  cfg.osc.random_walk_ppm = 0.02;
  DisciplinedClock clk{gps, cfg};
  // Let the servo converge (several PPS edges), then check bound.
  (void)clk.now(5 * kPicosPerSec);
  double worst = 0.0;
  for (int i = 0; i < 50; ++i) {
    const Picos t = 5 * kPicosPerSec + i * 100 * kPicosPerMilli;
    worst = std::max(worst, std::abs(clk.error_nanos(t)));
  }
  // Sub-microsecond, as the paper claims (typically tens of ns here).
  EXPECT_LT(worst, 1000.0);
  EXPECT_GT(clk.pps_edges_seen(), 4u);
}

TEST(Clock, ServoTrimsStaticOffset) {
  GpsConfig gcfg;
  gcfg.jitter_rms = 0;
  GpsModel gps{gcfg};
  ClockConfig cfg;
  cfg.osc.ppm_offset = 50.0;
  DisciplinedClock clk{gps, cfg};
  (void)clk.now(20 * kPicosPerSec);
  // The integral term should have absorbed ~-50 ppm.
  EXPECT_NEAR(clk.trim_ppm(), -50.0, 5.0);
}

TEST(Clock, TimestampsQuantizedToTicks) {
  GpsModel gps;
  ClockConfig cfg;
  cfg.discipline = false;
  DisciplinedClock clk{gps, cfg};
  // Two queries 1 ns apart (below the 6.25 ns tick) often yield the same
  // stamp; queries a tick apart always differ.
  const auto a = clk.now(1000 * kPicosPerNano);
  const auto b = clk.now(1000 * kPicosPerNano + from_nanos(kTickNanos));
  EXPECT_GT(b.raw, a.raw);
  const double step = delta_nanos(b, a);
  // One tick is 26.84 LSBs of the 32.32 format, so a single step reads as
  // 26 or 27 LSBs: allow ±1 LSB (~0.233 ns).
  EXPECT_NEAR(step, kTickNanos, 0.25);
}

TEST(Clock, MonotonicOutput) {
  GpsModel gps;
  ClockConfig cfg;
  cfg.osc.ppm_offset = -30.0;
  DisciplinedClock clk{gps, cfg};
  std::uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto t = clk.now(i * kPicosPerMilli);
    EXPECT_GE(t.raw, prev);
    prev = t.raw;
  }
}

// ------------------------------------------------------------------ Embed

TEST(Embed, RoundTrip) {
  net::PacketBuilder b;
  net::Packet p =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
                net::ipproto::kUdp)
          .udp(1024, 5001)
          .pad_to_frame(128)
          .build();
  const Timestamp ts = Timestamp::from_seconds(3.14159);
  ASSERT_TRUE(embed_timestamp(p.mut_bytes(), kDefaultEmbedOffset, {ts, 42}));
  const auto back = extract_timestamp(p.bytes(), kDefaultEmbedOffset);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->ts, ts);
  EXPECT_EQ(back->seq, 42u);
}

TEST(Embed, TooShortFails) {
  net::Packet p;
  p.data = net::FrameBuf(45);  // offset 42 + 12 > 45
  EXPECT_FALSE(embed_timestamp(p.mut_bytes(), kDefaultEmbedOffset, {{}, 0}));
  EXPECT_FALSE(extract_timestamp(p.bytes(), kDefaultEmbedOffset));
}

TEST(Embed, CustomOffset) {
  net::Packet p;
  p.data = net::FrameBuf(64);
  const Timestamp ts = Timestamp::from_raw(0x0123456789ABCDEF);
  ASSERT_TRUE(embed_timestamp(p.mut_bytes(), 16, {ts, 7}));
  const auto back = extract_timestamp(p.bytes(), 16);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->ts.raw, 0x0123456789ABCDEFull);
  // Different offset reads garbage (not the stamp).
  const auto wrong = extract_timestamp(p.bytes(), 20);
  ASSERT_TRUE(wrong);
  EXPECT_NE(wrong->ts.raw, ts.raw);
}

}  // namespace
}  // namespace osnt::tstamp
