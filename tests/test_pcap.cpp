// PCAP reader/writer: round trips in both precisions, error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "osnt/net/builder.hpp"
#include "osnt/net/pcap.hpp"

namespace osnt::net {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("osnt_pcap_test_" + std::to_string(::getpid()) + "_" +
                        std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()) +
                        ".pcap"))
                          .string();

  void TearDown() override { std::remove(path_.c_str()); }

  static Packet frame(std::size_t size, std::uint16_t dport) {
    PacketBuilder b;
    return b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
        .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
              ipproto::kUdp)
        .udp(1024, dport)
        .pad_to_frame(size)
        .build();
  }
};

TEST_F(PcapTest, NanosecondRoundTrip) {
  {
    PcapWriter w{path_, /*nanosecond=*/true};
    w.write(1'234'567'890'123ull, frame(128, 1).bytes());
    w.write(1'234'567'890'999ull, frame(256, 2).bytes());
    EXPECT_EQ(w.records_written(), 2u);
  }
  PcapReader r{path_};
  EXPECT_TRUE(r.nanosecond_format());
  EXPECT_EQ(r.link_type(), 1u);
  auto rec1 = r.next();
  ASSERT_TRUE(rec1);
  EXPECT_EQ(rec1->ts_nanos, 1'234'567'890'123ull);
  EXPECT_EQ(rec1->data.size(), 124u);  // frame minus FCS
  auto rec2 = r.next();
  ASSERT_TRUE(rec2);
  EXPECT_EQ(rec2->ts_nanos, 1'234'567'890'999ull);
  EXPECT_FALSE(r.next());
}

TEST_F(PcapTest, MicrosecondTruncatesToMicros) {
  {
    PcapWriter w{path_, /*nanosecond=*/false};
    w.write(5'000'001'234ull, frame(64, 1).bytes());
  }
  PcapReader r{path_};
  EXPECT_FALSE(r.nanosecond_format());
  auto rec = r.next();
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->ts_nanos, 5'000'001'000ull);  // µs precision
}

TEST_F(PcapTest, OrigLenPreservedForSnapped) {
  {
    PcapWriter w{path_};
    const Packet big = frame(1518, 1);
    w.write(42, big.bytes().first(64), 1514);
  }
  PcapReader r{path_};
  auto rec = r.next();
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->data.size(), 64u);
  EXPECT_EQ(rec->orig_len, 1514u);
}

TEST_F(PcapTest, ReadAllCollectsEverything) {
  {
    PcapWriter w{path_};
    for (int i = 0; i < 10; ++i)
      w.write(static_cast<std::uint64_t>(i) * 1000,
              frame(64 + static_cast<std::size_t>(i) * 8, 1).bytes());
  }
  const auto all = PcapReader::read_all(path_);
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(all[static_cast<std::size_t>(i)].ts_nanos,
              static_cast<std::uint64_t>(i) * 1000);
}

TEST_F(PcapTest, MissingFileThrows) {
  EXPECT_THROW(PcapReader{"/nonexistent/nope.pcap"}, std::runtime_error);
}

TEST_F(PcapTest, BadMagicThrows) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "NOTAPCAPFILE0000000000000000";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapReader{path_}, std::runtime_error);
}

TEST_F(PcapTest, TruncatedFinalRecordIsLenientEof) {
  {
    PcapWriter w{path_};
    w.write(1, frame(256, 1).bytes());
    w.write(2, frame(256, 2).bytes());
  }
  // Chop the file mid-record: the capture died while writing the tail.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 50);
  PcapReader r{path_};
  EXPECT_TRUE(r.next());  // intact first record still delivered
  EXPECT_FALSE(r.next());  // truncated tail → EOF, not an exception
  EXPECT_EQ(r.truncated_tail(), 1u);
  EXPECT_FALSE(r.next());  // stays at EOF on repeated reads
  EXPECT_EQ(r.truncated_tail(), 1u);
}

TEST_F(PcapTest, TruncatedHeaderTailIsLenientEof) {
  {
    PcapWriter w{path_};
    w.write(1, frame(256, 1).bytes());
  }
  // Chop inside the 16-byte record header itself: 24-byte global header
  // plus the first 6 bytes of the record header survive.
  std::filesystem::resize_file(path_, 24 + 6);
  PcapReader r{path_};
  EXPECT_FALSE(r.next());
  EXPECT_EQ(r.truncated_tail(), 1u);
}

TEST_F(PcapTest, TruncatedRecordThrowsInStrictMode) {
  {
    PcapWriter w{path_};
    w.write(1, frame(256, 1).bytes());
  }
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 50);
  PcapReader r{path_, PcapReaderOptions{.strict = true}};
  EXPECT_THROW((void)r.next(), std::runtime_error);
}

TEST_F(PcapTest, MoveTransfersOwnership) {
  {
    PcapWriter w{path_};
    w.write(1, frame(64, 1).bytes());
  }
  PcapReader a{path_};
  PcapReader b{std::move(a)};
  EXPECT_TRUE(b.next());
}

}  // namespace
}  // namespace osnt::net
