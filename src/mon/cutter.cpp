#include "osnt/mon/cutter.hpp"

#include <algorithm>

#include "osnt/common/crc.hpp"

namespace osnt::mon {

CutResult PacketCutter::process(ByteSpan frame) const {
  CutResult r;
  r.orig_len = static_cast<std::uint32_t>(frame.size());
  r.hash = crc32(frame);
  const std::size_t keep =
      cfg_.snap_len == 0 ? frame.size() : std::min(cfg_.snap_len, frame.size());
  r.data.assign(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(keep));
  return r;
}

}  // namespace osnt::mon
