// Flow-statistics polling module (an OFLOPS baseline scenario): measures
// the flow-stats request RTT as a function of table occupancy, and the
// collateral damage polling inflicts on other control-plane work — the
// packet_in path shares the agent CPU, so its latency inflates while the
// agent walks the table.
#pragma once

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct StatsPollConfig {
  std::size_t table_size = 256;       ///< rules the stats scan must walk
  std::size_t probes_per_phase = 100; ///< packet_in samples per phase
};

class StatsPollModule final : public MeasurementModule {
 public:
  using Config = StatsPollConfig;

  explicit StatsPollModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "stats_poll"; }
  void start(OflopsContext& ctx) override;
  void on_of_message(OflopsContext& ctx,
                     const openflow::Decoded& msg) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override;

 private:
  enum class Phase { kFill, kBaseline, kPolling, kDone };
  enum : std::uint64_t { kTimerStartProbe = 1, kTimerPoll, kTimerFilled };

  Config cfg_;
  Phase phase_ = Phase::kFill;
  bool done_ = false;

  std::unordered_map<std::uint32_t, Picos> stats_in_flight_;
  std::size_t flows_reported_ = 0;

  SampleSet baseline_pin_us_;
  SampleSet polling_pin_us_;
  SampleSet stats_rtt_ms_;
};

}  // namespace osnt::oflops
