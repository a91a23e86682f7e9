// pcapng reader/writer: round trips, multi-interface captures,
// nanosecond resolution, unknown-block tolerance, error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/pcapng.hpp"

namespace osnt::net {
namespace {

class PcapngTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("osnt_pcapng_" + std::to_string(::getpid()) + "_" +
                        std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()) +
                        ".pcapng"))
                          .string();

  void TearDown() override { std::remove(path_.c_str()); }

  static Packet frame(std::size_t size) {
    PacketBuilder b;
    return b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
        .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
              ipproto::kUdp)
        .udp(1024, 5001)
        .pad_to_frame(size)
        .build();
  }
};

TEST_F(PcapngTest, NanosecondRoundTrip) {
  {
    PcapngWriter w{path_};
    w.write(0, 1'234'567'890'123ull, frame(128).bytes());
    w.write(0, 1'234'567'890'999ull, frame(256).bytes());
    EXPECT_EQ(w.records_written(), 2u);
  }
  const auto recs = PcapngReader::read_all(path_);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].ts_nanos, 1'234'567'890'123ull);
  EXPECT_EQ(recs[0].data.size(), 124u);
  EXPECT_EQ(recs[1].ts_nanos, 1'234'567'890'999ull);
  EXPECT_EQ(recs[1].orig_len, 252u);
}

TEST_F(PcapngTest, MultiInterface) {
  {
    PcapngWriter w{path_, {"port0", "port1", "port2"}};
    EXPECT_EQ(w.interface_count(), 3u);
    w.write(2, 100, frame(64).bytes());
    w.write(0, 200, frame(64).bytes());
  }
  PcapngReader r{path_};
  auto a = r.next();
  ASSERT_TRUE(a);
  EXPECT_EQ(a->interface_id, 2u);
  auto b = r.next();
  ASSERT_TRUE(b);
  EXPECT_EQ(b->interface_id, 0u);
  EXPECT_FALSE(r.next());
  EXPECT_EQ(r.interface_count(), 3u);
}

TEST_F(PcapngTest, SnappedOrigLenPreserved) {
  {
    PcapngWriter w{path_};
    const Packet p = frame(1518);
    w.write(0, 42, p.bytes().first(64), 1514);
  }
  const auto recs = PcapngReader::read_all(path_);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].data.size(), 64u);
  EXPECT_EQ(recs[0].orig_len, 1514u);
}

TEST_F(PcapngTest, UnknownBlocksSkipped) {
  {
    PcapngWriter w{path_};
    w.write(0, 7, frame(64).bytes());
  }
  // Append a custom block (type 0x0BAD) by hand.
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::uint8_t blk[16];
    store_le32(blk, 0x0BAD);
    store_le32(blk + 4, 16);
    store_le32(blk + 8, 0xDEADBEEF);
    store_le32(blk + 12, 16);
    std::fwrite(blk, 1, 16, f);
    std::fclose(f);
  }
  {
    PcapngWriter dummy{path_ + ".2"};  // unrelated
  }
  std::remove((path_ + ".2").c_str());
  const auto recs = PcapngReader::read_all(path_);
  EXPECT_EQ(recs.size(), 1u);  // the custom block was skipped silently
}

TEST_F(PcapngTest, WriterRejectsBadInterface) {
  PcapngWriter w{path_, {"only"}};
  EXPECT_THROW(w.write(1, 0, frame(64).bytes()), std::invalid_argument);
  EXPECT_THROW(PcapngWriter(path_ + ".x", {}), std::invalid_argument);
}

TEST_F(PcapngTest, ReaderRejectsGarbage) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    const char junk[] = "this is not a pcapng file at all.....";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapngReader{path_}, std::runtime_error);
  EXPECT_THROW(PcapngReader{"/nonexistent/x.pcapng"}, std::runtime_error);
}

TEST_F(PcapngTest, PayloadBytesIdentical) {
  const Packet p = frame(333);
  {
    PcapngWriter w{path_};
    w.write(0, 5, p.bytes());
  }
  const auto recs = PcapngReader::read_all(path_);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].data, to_bytes(p.bytes()));
}

TEST_F(PcapngTest, ManyRecordsStreamCleanly) {
  {
    PcapngWriter w{path_, {"a", "b"}};
    for (std::uint32_t i = 0; i < 500; ++i)
      w.write(i % 2, i * 1000ull, frame(64 + (i % 64)).bytes());
  }
  PcapngReader r{path_};
  std::size_t n = 0;
  while (auto rec = r.next()) {
    EXPECT_EQ(rec->ts_nanos, n * 1000ull);
    EXPECT_EQ(rec->interface_id, n % 2);
    ++n;
  }
  EXPECT_EQ(n, 500u);
}

TEST_F(PcapngTest, HostCaptureExportKeepsPortAttribution) {
  sim::Engine eng;
  core::OsntDevice dev{eng};
  hw::connect(dev.port(0), dev.port(1));
  hw::connect(dev.port(2), dev.port(3));
  for (std::size_t p : {std::size_t{0}, std::size_t{2}}) {
    gen::TxConfig txc;
    txc.rate = gen::RateSpec::pps(100'000);
    auto& tx = dev.configure_tx(p, txc);
    core::TrafficSpec spec;
    spec.frame_count = 20;
    spec.seed = p + 1;
    tx.set_source(core::make_source(spec));
    tx.start();
  }
  eng.run();
  dev.capture().write_pcapng(path_, dev.num_ports());
  const auto recs = PcapngReader::read_all(path_);
  ASSERT_EQ(recs.size(), 40u);
  int if1 = 0, if3 = 0;
  for (const auto& r : recs) {
    if (r.interface_id == 1) ++if1;
    if (r.interface_id == 3) ++if3;
  }
  EXPECT_EQ(if1, 20);
  EXPECT_EQ(if3, 20);
}

}  // namespace
}  // namespace osnt::net
