#include "osnt/gen/synth.hpp"

#include <stdexcept>

namespace osnt::gen {

std::vector<net::PcapRecord> synthesize_trace(PacketSource& source,
                                              GapModel& gaps,
                                              const SynthSpec& spec) {
  std::vector<net::PcapRecord> out;
  out.reserve(spec.frames);
  Rng rng{spec.seed};
  std::uint64_t t_ns = spec.start_ns;
  const auto mean = static_cast<Picos>(spec.mean_gap_ns) * kPicosPerNano;
  for (std::size_t i = 0; i < spec.frames; ++i) {
    auto tp = source.next();
    if (!tp)
      throw std::invalid_argument(
          "synthesize_trace: source exhausted before frame count");
    net::PcapRecord rec;
    rec.ts_nanos = t_ns;
    rec.orig_len = static_cast<std::uint32_t>(tp->pkt.size());
    rec.data = to_bytes(tp->pkt.bytes());
    out.push_back(std::move(rec));
    const Picos gap = gaps.sample(rng, mean, kPicosPerNano);
    t_ns += static_cast<std::uint64_t>(gap / kPicosPerNano);
  }
  return out;
}

std::size_t synthesize_trace_file(const std::string& path,
                                  PacketSource& source, GapModel& gaps,
                                  const SynthSpec& spec) {
  const auto records = synthesize_trace(source, gaps, spec);
  net::PcapWriter writer{path, /*nanosecond=*/true};
  for (const auto& rec : records)
    writer.write(rec.ts_nanos, ByteSpan{rec.data.data(), rec.data.size()},
                 rec.orig_len);
  return writer.records_written();
}

}  // namespace osnt::gen
