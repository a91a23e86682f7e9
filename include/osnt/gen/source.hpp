// PacketSource: where the TX pipeline pulls frames from. Implementations:
// TemplateSource (synthetic flows) and PcapReplaySource (trace replay).
#pragma once

#include <optional>

#include "osnt/common/time.hpp"
#include "osnt/net/packet.hpp"

namespace osnt::gen {

/// A frame plus an optional replay gap hint. Sources that replay recorded
/// traffic provide the recorded inter-departure time; synthetic sources
/// leave it empty and let the rate controller decide.
struct TimedPacket {
  net::Packet pkt;
  std::optional<Picos> gap_hint;  ///< start-to-start interval to next frame
};

class PacketSource {
 public:
  virtual ~PacketSource() = default;
  /// Next frame, or nullopt when the source is exhausted.
  [[nodiscard]] virtual std::optional<TimedPacket> next() = 0;
  /// Restart from the beginning (for looped generation); default no-op.
  virtual void rewind() {}
  /// After next() returned nullopt: true means "dry, not done" — the
  /// pipeline parks instead of stopping, and resumes on TxPipeline::kick()
  /// once the source has frames again. Open-loop sources are never
  /// blocked; closed-loop sources (gen::ClosedLoopSource) are blocked
  /// until closed.
  [[nodiscard]] virtual bool blocked() const { return false; }
};

}  // namespace osnt::gen
