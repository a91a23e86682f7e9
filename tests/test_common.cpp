// Unit tests for the common substrate: CRC, hashes, RNG, statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>

#include "osnt/common/crc.hpp"
#include "osnt/common/fifo.hpp"
#include "osnt/common/hash.hpp"
#include "osnt/common/random.hpp"
#include "osnt/common/stats.hpp"
#include "osnt/common/time.hpp"
#include "osnt/common/types.hpp"

namespace osnt {
namespace {

// ------------------------------------------------------------- byte order

TEST(ByteOrder, Be16RoundTrip) {
  std::uint8_t buf[2];
  store_be16(buf, 0xABCD);
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[1], 0xCD);
  EXPECT_EQ(load_be16(buf), 0xABCD);
}

TEST(ByteOrder, Be32RoundTrip) {
  std::uint8_t buf[4];
  store_be32(buf, 0xDEADBEEF);
  EXPECT_EQ(buf[0], 0xDE);
  EXPECT_EQ(load_be32(buf), 0xDEADBEEFu);
}

TEST(ByteOrder, Be64RoundTrip) {
  std::uint8_t buf[8];
  store_be64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xEF);
  EXPECT_EQ(load_be64(buf), 0x0123456789ABCDEFull);
}

TEST(ByteOrder, Le32RoundTrip) {
  std::uint8_t buf[4];
  store_le32(buf, 0xA1B2C3D4);
  EXPECT_EQ(buf[0], 0xD4);
  EXPECT_EQ(load_le32(buf), 0xA1B2C3D4u);
}

// -------------------------------------------------------------------- CRC

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (the classic check value).
  const char* s = "123456789";
  EXPECT_EQ(crc32(ByteSpan{reinterpret_cast<const std::uint8_t*>(s), 9}),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<std::uint8_t>(i));
  Crc32 inc;
  inc.update(ByteSpan{data.data(), 40});
  inc.update(ByteSpan{data.data() + 40, 60});
  EXPECT_EQ(inc.value(), crc32(ByteSpan{data.data(), data.size()}));
}

/// Bytewise, bit-at-a-time reference for the sliced update().
std::uint32_t crc32_reference(ByteSpan data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Lengths 0-9018 (a jumbo frame), starts 0-7 bytes into the buffer so
  // the 8-byte steps read unaligned words, and incremental updates split
  // at random points, including splits inside an 8-byte step.
  constexpr std::size_t kMaxLen = 9018;
  Rng rng{77};
  Bytes buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  std::size_t cases = 0;
  const auto check = [&](std::size_t off, std::size_t len) {
    const ByteSpan data{buf.data() + off, len};
    const std::uint32_t want = crc32_reference(data);
    ASSERT_EQ(crc32(data), want) << "len " << len << " offset " << off;
    Crc32 inc;
    std::size_t at = 0;
    while (at < len) {
      const std::size_t n = rng.uniform_int(0, len - at);
      if (n == 1) {
        inc.update(data[at]);
      } else {
        inc.update(data.subspan(at, n));
      }
      at += n;
    }
    ASSERT_EQ(inc.value(), want) << "split, len " << len << " offset " << off;
    ++cases;
  };
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 72; ++len) check(off, len);
    check(off, kMaxLen);
  }
  for (int i = 0; i < 12000; ++i) {
    const std::size_t hi = i % 8 == 0 ? kMaxLen : 300;
    check(rng.uniform_int(0, 7), rng.uniform_int(0, hi));
  }
  EXPECT_GE(cases, 10000u);
}

TEST(Crc32, SensitiveToSingleBit) {
  Bytes a(64, 0);
  Bytes b = a;
  b[31] ^= 0x01;
  EXPECT_NE(crc32(ByteSpan{a.data(), a.size()}),
            crc32(ByteSpan{b.data(), b.size()}));
}

// ------------------------------------------------------------------ hash

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a64({}), 0xCBF29CE484222325ull);
}

TEST(Hash, Mix64NoFixedPointAtSmallInputs) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 1000u);  // injective on this range
}

// ------------------------------------------------------------------- RNG

TEST(Rng, DeterministicForSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng r{9};
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r{5};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ExponentialMean) {
  Rng r{11};
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng r{13};
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, ParetoBounded) {
  Rng r{17};
  for (int i = 0; i < 10000; ++i) {
    const double v = r.pareto(1.2, 64.0, 1518.0);
    EXPECT_GE(v, 64.0 - 1e-9);
    EXPECT_LE(v, 1518.0 + 1e-9);
  }
}

TEST(Rng, ChanceProbability) {
  Rng r{19};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (r.chance(0.25)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// ------------------------------------------------------------- statistics

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // reverse order on purpose
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
}

TEST(SampleSet, QuantileOnEmpty) {
  SampleSet s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(SampleSet, MeanTracksRunningStats) {
  SampleSet s;
  Rng r{3};
  for (int i = 0; i < 1000; ++i) s.add(r.uniform(0, 10));
  EXPECT_GT(s.mean(), 4.5);
  EXPECT_LT(s.mean(), 5.5);
}

// ------------------------------------------------------------------ time

TEST(Time, Conversions) {
  EXPECT_EQ(from_nanos(1.0), kPicosPerNano);
  EXPECT_EQ(from_micros(1.0), kPicosPerMicro);
  EXPECT_EQ(from_seconds(1.0), kPicosPerSec);
  EXPECT_DOUBLE_EQ(to_seconds(kPicosPerSec), 1.0);
  EXPECT_DOUBLE_EQ(to_nanos(kPicosPerMicro), 1000.0);
}

// ------------------------------------------------------------------ fifo

struct Rec {
  std::uint64_t a;
  std::uint32_t b;
  friend bool operator==(const Rec&, const Rec&) = default;
};

// Allocation counts are in test_alloc.cpp, which replaces operator new.

TEST(Fifo, PopsInPushOrderAcrossWrapAndGrowth) {
  Fifo<std::uint64_t> q;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  // Three in, two out: the head walks round the ring before each growth.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.back(), next_in - 1);
  while (!q.empty()) {
    ASSERT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, PopBackDownToEmpty) {
  Fifo<std::uint64_t> q;
  for (std::uint64_t v = 0; v < 20; ++v) q.push_back(v);
  for (std::uint64_t v = 20; v-- > 0;) {
    ASSERT_EQ(q.back(), v);
    ASSERT_EQ(q.front(), 0u);
    q.pop_back();
  }
  EXPECT_TRUE(q.empty());
  q.push_back(7);
  EXPECT_EQ(q.front(), 7u);
  EXPECT_EQ(q.back(), 7u);
}

TEST(Fifo, ClearKeepsCapacity) {
  Fifo<std::uint64_t> q;
  for (std::uint64_t v = 0; v < 40; ++v) q.push_back(v);
  q.pop_front();
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 40u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  for (std::uint64_t v = 0; v < 40; ++v) q.push_back(v);
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.front(), 0u);
  EXPECT_EQ(q.back(), 39u);
}

TEST(Fifo, MatchesADequeOverASeededRandomSequence) {
  Fifo<Rec> q;
  std::deque<Rec> ref;
  Rng rng{20};
  for (std::uint32_t op = 0; op < 100000; ++op) {
    const std::uint64_t pick = rng.uniform_int(0, 999);
    if (pick < 520) {
      const Rec r{rng(), op};
      q.push_back(r);
      ref.push_back(r);
    } else if (pick < 800) {
      if (ref.empty()) continue;
      ASSERT_EQ(q.front(), ref.front()) << "op " << op;
      q.pop_front();
      ref.pop_front();
    } else if (pick < 999) {
      if (ref.empty()) continue;
      ASSERT_EQ(q.back(), ref.back()) << "op " << op;
      q.pop_back();
      ref.pop_back();
    } else {
      q.clear();
      ref.clear();
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    if (!ref.empty()) {
      ASSERT_EQ(q.front(), ref.front()) << "op " << op;
      ASSERT_EQ(q.back(), ref.back()) << "op " << op;
    }
  }
  EXPECT_GE(q.capacity(), 64u);  // the sequence grew the ring
  while (!ref.empty()) {
    ASSERT_EQ(q.front(), ref.front());
    q.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace osnt
