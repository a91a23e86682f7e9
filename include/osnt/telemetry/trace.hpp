// Sim-time event tracing in the Chrome trace_event JSON array format, so
// a run can be opened in Perfetto / chrome://tracing. Timestamps are
// *simulated* picoseconds rendered as microseconds (Chrome's `ts` unit) —
// the trace shows what the simulated universe did, not how long the host
// took to compute it; that is what makes traces byte-identical across
// --jobs values. Tracks map to Chrome threads (one `tid` per registered
// track, named via thread_name metadata).
//
// Not thread-safe: one recorder serves one engine on one thread, matching
// the one-engine-per-trial execution model. Event names must be string
// literals (or otherwise outlive the recorder) — nothing is copied on the
// record path, which keeps a slice record at vector-push-back cost.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "osnt/common/time.hpp"

namespace osnt::telemetry {

class TraceRecorder {
 public:
  using TrackId = std::uint32_t;

  /// `max_events` bounds memory; records past the cap are dropped and
  /// counted (a bounded trace beats an OOM mid-experiment).
  explicit TraceRecorder(std::size_t max_events = std::size_t{1} << 22)
      : max_events_(max_events) {}

  /// Register (or look up) a track by name; equal names share a track.
  TrackId track(const std::string& name);

  /// Duration slice [start, start+dur] in sim time. dur 0 is a valid
  /// zero-width slice (an engine handler is instantaneous in sim time).
  void complete(TrackId t, const char* name, Picos start, Picos dur) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{name, start, dur, t, 'X'});
  }

  /// Instant marker at `at`.
  void instant(TrackId t, const char* name, Picos at) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{name, at, 0, t, 'i'});
  }

  /// Counter sample at `at`: renders as a stepped value-over-time track
  /// in Perfetto (one series per `name` within the track). This is how
  /// cwnd sawtooths and rate estimates become visible next to the frame
  /// slices they explain.
  void counter(TrackId t, const char* name, Picos at, std::uint64_t value) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{name, at, static_cast<Picos>(value), t, 'C'});
  }

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t track_count() const noexcept {
    return tracks_.size();
  }

  /// Drop recorded events (tracks survive).
  void clear() noexcept {
    events_.clear();
    dropped_ = 0;
  }

  /// Emit the JSON array: thread_name metadata for every track, then the
  /// events in record order. Deterministic byte-for-byte for identical
  /// recordings.
  void write_chrome_json(std::ostream& os) const;
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    Picos start;
    Picos dur;  ///< slice duration for 'X'; raw counter value for 'C'
    TrackId track;
    char ph;
  };

  std::vector<std::string> tracks_;  ///< by TrackId, in registration order
  std::unordered_map<std::string, TrackId> index_;  ///< name -> TrackId
  std::vector<Event> events_;
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace osnt::telemetry
