// OFLOPS-turbo measurement module interface. A module drives one
// experiment against the switch under test, receiving events from the
// data plane (OSNT captures), the control plane (OpenFlow messages) and
// its timers, and produces a Report. An SNMP wait
// (OflopsContext::await_table) ends in a timer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "osnt/common/stats.hpp"
#include "osnt/common/time.hpp"
#include "osnt/mon/capture.hpp"
#include "osnt/openflow/messages.hpp"

namespace osnt::oflops {

class OflopsContext;

/// How long a module that counts answers waits for them after its last
/// request: an outage loses some for good, and a simulated second is far
/// past any healthy round trip.
inline constexpr Picos kAnswerGrace = kPicosPerSec;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string module;
  std::string stopped;  ///< why the run ended early; empty when it finished
  std::vector<Metric> scalars;
  std::vector<std::pair<std::string, SampleSet>> distributions;

  void add(std::string name, double value, std::string unit = "") {
    scalars.push_back({std::move(name), value, std::move(unit)});
  }
  void add_distribution(std::string name, SampleSet s) {
    distributions.emplace_back(std::move(name), std::move(s));
  }
  /// Pretty-print: why the run stopped early (if it did), scalars, then
  /// p50/p99 etc. of each distribution.
  void print(std::FILE* out = stdout) const;
};

class MeasurementModule {
 public:
  virtual ~MeasurementModule() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once; the module schedules its work through the context.
  virtual void start(OflopsContext& ctx) = 0;

  /// Control-plane event (message from the switch).
  virtual void on_of_message(OflopsContext& /*ctx*/,
                             const openflow::Decoded& /*msg*/) {}
  /// Data-plane event (a capture record landed at the host).
  virtual void on_capture(OflopsContext& /*ctx*/,
                          const mon::CaptureRecord& /*rec*/) {}
  /// A timer armed via ctx.timer_in() fired, a ctx.await_table() wait
  /// ended, or a ctx.install() was acknowledged.
  virtual void on_timer(OflopsContext& /*ctx*/, std::uint64_t /*timer_id*/) {}

  /// The run loop stops when this turns true (or on timeout).
  [[nodiscard]] virtual bool finished() const = 0;

  [[nodiscard]] virtual Report report() const = 0;
};

}  // namespace osnt::oflops
