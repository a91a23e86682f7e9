#include "osnt/tstamp/clock.hpp"

#include <cmath>

namespace osnt::tstamp {

DisciplinedClock::DisciplinedClock(GpsModel& gps, Config cfg)
    : osc_(cfg.osc), gps_(&gps), cfg_(cfg) {
  // increment = 2^64 / kDatapathHz, in 2^-64 s per tick.
  const double inc = std::ldexp(1.0, 64) / kDatapathHz;
  nominal_inc_ = static_cast<std::uint64_t>(inc);
  increment_ = nominal_inc_;
  if (cfg_.discipline) next_pps_ = gps_->next_pps_after(0);
}

void DisciplinedClock::advance_to(Picos truth) {
  const std::uint64_t ticks = osc_.ticks_at(truth);
  acc_ += static_cast<unsigned __int128>(ticks - last_ticks_) * increment_;
  last_ticks_ = ticks;
}

void DisciplinedClock::process_pps(Picos edge) {
  // Fraction of phase error removed per second.
  constexpr double kServoKp = 0.7;
  // Integral gain (absorbs frequency offset).
  constexpr double kServoKi = 0.3;
  // Above this error the clock phase-steps instead of slewing.
  constexpr double kStepThresholdNs = 10'000.0;
  advance_to(edge);
  ++pps_count_;
  // GPS tells us which absolute second this edge marks.
  const std::int64_t second = (edge + kPicosPerSec / 2) / kPicosPerSec;
  const unsigned __int128 expected =
      static_cast<unsigned __int128>(second) << 64;
  const double err_ns =
      static_cast<double>(static_cast<__int128>(acc_ - expected)) *
      std::ldexp(1.0, -64) * 1e9;
  last_err_ns_ = err_ns;

  if (std::abs(err_ns) > kStepThresholdNs) {
    // Cold start / gross error: step the phase, and fold the whole error
    // (accumulated over ~1 s) into the frequency trim so a large static
    // ppm offset converges instead of stepping every second.
    acc_ = expected;
    trim_ -= err_ns * 1e-9;
    increment_ = static_cast<std::uint64_t>(
        static_cast<double>(nominal_inc_) * (1.0 + trim_));
    return;
  }
  // PI servo (NTP-style PLL+FLL): the integral `trim_` is the persistent
  // frequency estimate; the proportional term slews out `kServoKp` of the
  // phase error over the next second on top of it.
  trim_ += -kServoKi * err_ns * 1e-9;
  const double phase_slew = -kServoKp * err_ns * 1e-9;
  increment_ = static_cast<std::uint64_t>(
      static_cast<double>(nominal_inc_) * (1.0 + trim_ + phase_slew));
}

Timestamp DisciplinedClock::now(Picos truth) {
  if (cfg_.discipline) {
    // Holdover recovery: when the GPS was absent, re-poll it about once
    // per second of simulated time so discipline resumes on reconnect.
    if (!next_pps_ && truth >= holdover_recheck_) {
      next_pps_ = gps_->next_pps_after(truth);
      holdover_recheck_ = truth + kPicosPerSec;
    }
    while (next_pps_ && *next_pps_ <= truth) {
      const Picos edge = *next_pps_;
      process_pps(edge);
      next_pps_ = gps_->next_pps_after(edge);
      if (!next_pps_) holdover_recheck_ = edge + kPicosPerSec;
    }
  }
  advance_to(truth);
  return Timestamp::from_raw(static_cast<std::uint64_t>(acc_ >> 32));
}

double DisciplinedClock::error_nanos(Picos truth) {
  const Timestamp t = now(truth);
  return t.to_nanos() - to_nanos(truth);
}

}  // namespace osnt::tstamp
