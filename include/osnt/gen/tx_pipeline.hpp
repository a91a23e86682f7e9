// Per-port transmit pipeline: pulls frames from a PacketSource, paces
// them with the rate controller + gap model, takes the TX timestamp from
// the disciplined clock *just before the MAC* (and embeds it at the
// configured offset, as the OSNT generator does), then hands the frame to
// the 10G TX MAC.
#pragma once

#include <cstdint>
#include <memory>

#include "osnt/common/random.hpp"
#include "osnt/gen/models.hpp"
#include "osnt/gen/rate.hpp"
#include "osnt/gen/source.hpp"
#include "osnt/hw/mac10g.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/histogram.hpp"
#include "osnt/tstamp/clock.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::gen {

struct TxConfig {
  RateSpec rate = RateSpec::line_rate(1.0);
  bool embed_timestamp = true;
  std::size_t embed_offset = tstamp::kDefaultEmbedOffset;
  std::uint64_t seed = 99;
};

class TxPipeline {
 public:
  /// The MAC and clock must outlive the pipeline.
  TxPipeline(sim::Engine& eng, hw::TxMac& mac, tstamp::DisciplinedClock& clock,
             TxConfig cfg = TxConfig());
  /// Merges this pipeline's shard (frame counters, frame-size histogram)
  /// into the telemetry registry under `gen.tx.*`.
  ~TxPipeline();

  void set_source(std::unique_ptr<PacketSource> source) {
    source_ = std::move(source);
  }
  /// Replace the default constant gap model (CBR) with e.g. Poisson.
  void set_gap_model(std::unique_ptr<GapModel> model) {
    gap_model_ = std::move(model);
  }

  /// Begin generation at the current sim time.
  /// Requires a source. Generation ends when the source is exhausted or
  /// stop() is called. A source that reports blocked() parks the pipeline
  /// instead of ending it; kick() resumes.
  void start();
  void stop();

  /// Wake a parked pipeline (source was dry-but-blocked and now has
  /// frames). No-op while a pull is already pending or the pipeline is
  /// stopped. Safe to call from any event handler; the pull happens in
  /// its own immediately-scheduled event, never re-entrantly.
  void kick();

  [[nodiscard]] bool running() const noexcept { return running_; }

  // --- statistics ---
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_; }
  [[nodiscard]] std::uint64_t wire_bytes_sent() const noexcept { return bytes_; }
  [[nodiscard]] Picos first_departure() const noexcept { return first_dep_; }
  [[nodiscard]] Picos last_departure() const noexcept { return last_dep_; }
  /// Achieved L1 rate over the generation window, Gb/s.
  [[nodiscard]] double achieved_gbps() const noexcept;
  [[nodiscard]] std::uint32_t next_seq() const noexcept { return seq_; }
  /// Frames pulled from the source (sent + rejected by a busy MAC).
  [[nodiscard]] std::uint64_t frames_scheduled() const noexcept {
    return scheduled_;
  }
  [[nodiscard]] std::uint64_t mac_rejects() const noexcept {
    return mac_rejects_;
  }

 private:
  void send_one();

  sim::Engine* eng_;
  hw::TxMac* mac_;
  tstamp::DisciplinedClock* clock_;
  TxConfig cfg_;
  RateController rate_;
  std::unique_ptr<GapModel> gap_model_;
  std::unique_ptr<PacketSource> source_;
  Rng rng_;

  bool running_ = false;
  sim::EventId pending_{};
  std::uint32_t seq_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t mac_rejects_ = 0;
  Picos first_dep_ = -1;
  Picos last_dep_ = -1;
  /// Telemetry shard: wire bytes per sent frame, merged at destruction.
  telemetry::Log2Histogram frame_bytes_;
  telemetry::TraceRecorder::TrackId trace_track_ = 0;
  bool trace_track_set_ = false;
};

}  // namespace osnt::gen
