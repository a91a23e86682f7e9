#include "osnt/common/crc.hpp"

#include <array>

namespace osnt {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8: kTables[0] is the bytewise table, and kTables[k][i] is the
// CRC state after byte i followed by k zero bytes. Eight lookups, one per
// input byte, then advance the state over eight bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

}  // namespace

void Crc32::update(std::uint8_t byte) noexcept {
  state_ = kTables[0][(state_ ^ byte) & 0xFFu] ^ (state_ >> 8);
}

void Crc32::update(ByteSpan data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = state_;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  state_ = c;
  for (; n > 0; ++p, --n) update(*p);
}

std::uint32_t crc32(ByteSpan data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace osnt
