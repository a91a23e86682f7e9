// Synthetic trace production: render a TemplateSource + timing model
// into an in-memory record list or a .pcap on disk — the tooling used to
// prepare replay inputs without a live capture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "osnt/gen/models.hpp"
#include "osnt/gen/source.hpp"
#include "osnt/net/pcap.hpp"

namespace osnt::gen {

struct SynthSpec {
  std::size_t frames = 1000;
  /// Mean inter-departure time in the trace timeline.
  std::uint64_t mean_gap_ns = 1000;
  std::uint64_t start_ns = 0;
  std::uint64_t seed = 7;
};

/// Draw `spec.frames` packets from `source`, spacing them with `gaps`
/// around the requested mean. The source must yield at least that many
/// packets.
[[nodiscard]] std::vector<net::PcapRecord> synthesize_trace(
    PacketSource& source, GapModel& gaps, const SynthSpec& spec);

/// Convenience: synthesize and write to a nanosecond .pcap; returns the
/// number of records written.
std::size_t synthesize_trace_file(const std::string& path,
                                  PacketSource& source, GapModel& gaps,
                                  const SynthSpec& spec);

}  // namespace osnt::gen
