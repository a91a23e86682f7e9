// PCAP file I/O. Supports the classic microsecond format (magic
// 0xA1B2C3D4) and the nanosecond variant (0xA1B23C4D) in both byte orders
// on read; writes native-endian. OSNT's generator replays PCAP traces and
// its monitor dumps captures — the nanosecond variant is the natural fit
// for a 6.25 ns timestamp clock.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "osnt/common/types.hpp"

namespace osnt::net {

struct PcapRecord {
  std::uint64_t ts_nanos = 0;  ///< absolute timestamp in nanoseconds
  std::uint32_t orig_len = 0;  ///< original length on the wire
  Bytes data;                  ///< captured bytes (<= orig_len when snapped)
};

struct PcapReaderOptions {
  /// Throw on a truncated final record instead of treating it as
  /// EOF-with-warning. Lenient is the default: a capture cut off by a
  /// crashed or killed writer loses its tail record, not the whole file.
  /// An implausible length or a truncated global header throws either way.
  bool strict = false;
};

/// Streaming PCAP reader. Throws std::runtime_error on open/parse failure.
class PcapReader {
 public:
  explicit PcapReader(const std::string& path,
                      PcapReaderOptions options = {});
  ~PcapReader();
  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;
  PcapReader(PcapReader&&) noexcept;
  PcapReader& operator=(PcapReader&&) noexcept;

  /// Next record, or nullopt at EOF. A record cut off by end-of-file is
  /// counted in truncated_tail() and reported as EOF (lenient mode, the
  /// default) or thrown (options.strict).
  [[nodiscard]] std::optional<PcapRecord> next();

  [[nodiscard]] bool nanosecond_format() const noexcept { return nanos_; }
  [[nodiscard]] std::uint32_t link_type() const noexcept { return link_type_; }
  /// 1 when the file ended mid-record and lenient mode swallowed it.
  [[nodiscard]] std::uint64_t truncated_tail() const noexcept {
    return truncated_tail_;
  }

  /// Read every record of a file into memory.
  [[nodiscard]] static std::vector<PcapRecord> read_all(
      const std::string& path, PcapReaderOptions options = {});

 private:
  std::optional<PcapRecord> truncated_eof_();

  std::FILE* f_ = nullptr;
  PcapReaderOptions opt_;
  bool nanos_ = false;
  bool swapped_ = false;
  bool done_ = false;
  std::uint32_t link_type_ = 1;
  std::uint32_t snaplen_ = 0;
  std::uint64_t truncated_tail_ = 0;
};

/// Streaming PCAP writer (Ethernet link type). Throws on I/O failure.
class PcapWriter {
 public:
  explicit PcapWriter(const std::string& path, bool nanosecond = true,
                      std::uint32_t snaplen = 65535);
  ~PcapWriter();
  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  void write(std::uint64_t ts_nanos, ByteSpan frame,
             std::uint32_t orig_len = 0);  ///< orig_len 0 → frame.size()

  [[nodiscard]] std::size_t records_written() const noexcept { return count_; }

 private:
  std::FILE* f_ = nullptr;
  bool nanos_ = true;
  std::size_t count_ = 0;
};

}  // namespace osnt::net
