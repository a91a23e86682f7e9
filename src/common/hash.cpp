#include "osnt/common/hash.hpp"

namespace osnt {

std::uint64_t fnv1a64(ByteSpan data) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (auto b : data) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace osnt
