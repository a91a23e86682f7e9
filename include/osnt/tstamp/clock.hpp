// GPS-disciplined timestamp clock — the mechanism OSNT uses to keep its
// 6.25 ns timestamp counter aligned to absolute time. The hardware adds a
// fixed-point increment to a 64-bit accumulator every datapath tick; the
// discipline loop measures the accumulator error at each GPS PPS edge and
// trims the increment (a PI servo), stepping the phase outright on a cold
// start. We model exactly that.
#pragma once

#include <cstdint>
#include <optional>

#include "osnt/common/time.hpp"
#include "osnt/tstamp/gps.hpp"
#include "osnt/tstamp/oscillator.hpp"
#include "osnt/tstamp/timestamp.hpp"

namespace osnt::tstamp {

struct ClockConfig {
  Oscillator::Config osc{};
  bool discipline = true;  ///< false = free-running (GPS ignored)
};

class DisciplinedClock {
 public:
  using Config = ClockConfig;

  /// The GPS model must outlive the clock.
  DisciplinedClock(GpsModel& gps, Config cfg = Config());

  /// Device timestamp at ground-truth time `truth`. Monotonic queries.
  [[nodiscard]] Timestamp now(Picos truth);

  /// Device-vs-truth error (device minus truth) in ns, at `truth`.
  [[nodiscard]] double error_nanos(Picos truth);

  [[nodiscard]] std::uint64_t pps_edges_seen() const noexcept { return pps_count_; }
  [[nodiscard]] double last_pps_error_ns() const noexcept { return last_err_ns_; }
  /// Current servo frequency trim in ppm (0 when undisciplined).
  [[nodiscard]] double trim_ppm() const noexcept { return trim_ * 1e6; }
  /// True when disciplining is on but no PPS is currently available —
  /// the clock coasts on its last frequency estimate (holdover).
  [[nodiscard]] bool in_holdover() const noexcept {
    return cfg_.discipline && !next_pps_.has_value();
  }

 private:
  void advance_to(Picos truth);
  void process_pps(Picos edge);

  Oscillator osc_;
  GpsModel* gps_;
  Config cfg_;

  /// Accumulated device time in 2^-64 second units (96-bit headroom).
  unsigned __int128 acc_ = 0;
  std::uint64_t nominal_inc_;  ///< 2^-64 s per tick at nominal frequency
  std::uint64_t increment_;    ///< current (trimmed) per-tick increment
  double trim_ = 0.0;          ///< fractional frequency adjustment
  std::uint64_t last_ticks_ = 0;

  std::optional<Picos> next_pps_;
  Picos holdover_recheck_ = 0;
  double last_err_ns_ = 0.0;
  std::uint64_t pps_count_ = 0;
};

}  // namespace osnt::tstamp
