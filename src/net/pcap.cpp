#include "osnt/net/pcap.hpp"

#include <stdexcept>

#include "osnt/common/log.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::net {
namespace {

constexpr std::uint32_t kMagicMicros = 0xA1B2C3D4;
constexpr std::uint32_t kMagicNanos = 0xA1B23C4D;
constexpr std::uint32_t kMagicMicrosSwapped = 0xD4C3B2A1;
constexpr std::uint32_t kMagicNanosSwapped = 0x4D3CB2A1;

std::uint32_t bswap32(std::uint32_t v) noexcept {
  return ((v & 0xFF) << 24) | ((v & 0xFF00) << 8) | ((v >> 8) & 0xFF00) |
         (v >> 24);
}

std::uint32_t read_u32(std::FILE* f, bool swapped, bool* eof = nullptr) {
  std::uint8_t b[4];
  if (std::fread(b, 1, 4, f) != 4) {
    if (eof) {
      *eof = true;
      return 0;
    }
    throw std::runtime_error("pcap: truncated file");
  }
  const std::uint32_t v = load_le32(b);
  return swapped ? bswap32(v) : v;
}

void write_u32(std::FILE* f, std::uint32_t v) {
  std::uint8_t b[4];
  store_le32(b, v);
  if (std::fwrite(b, 1, 4, f) != 4)
    throw std::runtime_error("pcap: write failed");
}

void write_u16(std::FILE* f, std::uint16_t v) {
  std::uint8_t b[2];
  store_le16(b, v);
  if (std::fwrite(b, 1, 2, f) != 2)
    throw std::runtime_error("pcap: write failed");
}

}  // namespace

PcapReader::PcapReader(const std::string& path, PcapReaderOptions options)
    : opt_(options) {
  f_ = std::fopen(path.c_str(), "rb");
  if (!f_) throw std::runtime_error("pcap: cannot open " + path);
  bool eof = false;
  const std::uint32_t magic = read_u32(f_, false, &eof);
  if (eof) {
    std::fclose(f_);
    f_ = nullptr;
    throw std::runtime_error("pcap: empty file " + path);
  }
  switch (magic) {
    case kMagicMicros: nanos_ = false; swapped_ = false; break;
    case kMagicNanos: nanos_ = true; swapped_ = false; break;
    case kMagicMicrosSwapped: nanos_ = false; swapped_ = true; break;
    case kMagicNanosSwapped: nanos_ = true; swapped_ = true; break;
    default:
      std::fclose(f_);
      f_ = nullptr;
      throw std::runtime_error("pcap: bad magic in " + path);
  }
  read_u32(f_, swapped_);  // version major/minor
  read_u32(f_, swapped_);  // thiszone
  read_u32(f_, swapped_);  // sigfigs
  snaplen_ = read_u32(f_, swapped_);
  link_type_ = read_u32(f_, swapped_);
}

PcapReader::~PcapReader() {
  if (f_) std::fclose(f_);
}

PcapReader::PcapReader(PcapReader&& other) noexcept
    : f_(other.f_), opt_(other.opt_), nanos_(other.nanos_),
      swapped_(other.swapped_), done_(other.done_),
      link_type_(other.link_type_), snaplen_(other.snaplen_),
      truncated_tail_(other.truncated_tail_) {
  other.f_ = nullptr;
}

PcapReader& PcapReader::operator=(PcapReader&& other) noexcept {
  if (this != &other) {
    if (f_) std::fclose(f_);
    f_ = other.f_;
    opt_ = other.opt_;
    nanos_ = other.nanos_;
    swapped_ = other.swapped_;
    done_ = other.done_;
    link_type_ = other.link_type_;
    snaplen_ = other.snaplen_;
    truncated_tail_ = other.truncated_tail_;
    other.f_ = nullptr;
  }
  return *this;
}

std::optional<PcapRecord> PcapReader::truncated_eof_() {
  if (opt_.strict) throw std::runtime_error("pcap: truncated record");
  // Reads are sequential, so a mid-record EOF is by definition the final
  // record — the usual fate of a capture whose writer died. Count it,
  // warn, and report clean EOF so the records before it stay usable.
  ++truncated_tail_;
  done_ = true;
  OSNT_WARN("pcap: final record truncated, dropping it (%llu so far)",
            static_cast<unsigned long long>(truncated_tail_));
  if (telemetry::enabled()) {
    telemetry::registry().counter("net.pcap.truncated_tail").inc();
  }
  return std::nullopt;
}

std::optional<PcapRecord> PcapReader::next() {
  if (!f_ || done_) return std::nullopt;
  bool eof = false;
  const std::uint32_t ts_sec = read_u32(f_, swapped_, &eof);
  if (eof) return std::nullopt;
  // Past this point an EOF is a record cut off mid-way.
  bool cut = false;
  bool* tail = opt_.strict ? nullptr : &cut;
  const std::uint32_t ts_frac = read_u32(f_, swapped_, tail);
  const std::uint32_t incl_len = read_u32(f_, swapped_, tail);
  const std::uint32_t orig_len = read_u32(f_, swapped_, tail);
  if (cut) return truncated_eof_();
  if (incl_len > 256 * 1024 * 1024)
    throw std::runtime_error("pcap: implausible record length");
  PcapRecord rec;
  rec.ts_nanos = std::uint64_t{ts_sec} * 1'000'000'000ull +
                 (nanos_ ? ts_frac : std::uint64_t{ts_frac} * 1000ull);
  rec.orig_len = orig_len;
  rec.data.resize(incl_len);
  if (incl_len &&
      std::fread(rec.data.data(), 1, incl_len, f_) != incl_len) {
    return truncated_eof_();  // throws in strict mode
  }
  return rec;
}

std::vector<PcapRecord> PcapReader::read_all(const std::string& path,
                                             PcapReaderOptions options) {
  PcapReader reader{path, options};
  std::vector<PcapRecord> out;
  while (auto rec = reader.next()) out.push_back(std::move(*rec));
  return out;
}

PcapWriter::PcapWriter(const std::string& path, bool nanosecond,
                       std::uint32_t snaplen)
    : nanos_(nanosecond) {
  f_ = std::fopen(path.c_str(), "wb");
  if (!f_) throw std::runtime_error("pcap: cannot create " + path);
  write_u32(f_, nanos_ ? kMagicNanos : kMagicMicros);
  write_u16(f_, 2);  // version major
  write_u16(f_, 4);  // version minor
  write_u32(f_, 0);  // thiszone
  write_u32(f_, 0);  // sigfigs
  write_u32(f_, snaplen);
  write_u32(f_, 1);  // LINKTYPE_ETHERNET
}

PcapWriter::~PcapWriter() {
  if (f_) std::fclose(f_);
}

void PcapWriter::write(std::uint64_t ts_nanos, ByteSpan frame,
                       std::uint32_t orig_len) {
  const std::uint32_t sec =
      static_cast<std::uint32_t>(ts_nanos / 1'000'000'000ull);
  const std::uint32_t frac = static_cast<std::uint32_t>(
      nanos_ ? ts_nanos % 1'000'000'000ull
             : (ts_nanos % 1'000'000'000ull) / 1000ull);
  write_u32(f_, sec);
  write_u32(f_, frac);
  write_u32(f_, static_cast<std::uint32_t>(frame.size()));
  write_u32(f_, orig_len ? orig_len : static_cast<std::uint32_t>(frame.size()));
  if (!frame.empty() &&
      std::fwrite(frame.data(), 1, frame.size(), f_) != frame.size())
    throw std::runtime_error("pcap: write failed");
  ++count_;
}

}  // namespace osnt::net
