// Control-plane interaction module (an OFLOPS scenario): how much does a
// packet_in storm slow down rule installation? The switch agent CPU is a
// single shared resource; this module measures flow_mod barrier RTT in a
// quiet control plane and again while table-miss traffic keeps the agent
// busy punting packets.
#pragma once

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct InteractionConfig {
  std::size_t rounds_per_phase = 30;
  double storm_pps = 1500.0;  ///< below the switch's packet_in limiter
};

class InteractionModule final : public MeasurementModule {
 public:
  using Config = InteractionConfig;

  explicit InteractionModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "interaction"; }
  void start(OflopsContext& ctx) override;
  void on_of_message(OflopsContext& ctx,
                     const openflow::Decoded& msg) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override;

 private:
  enum class Phase { kIdle, kStorm, kDone };
  enum : std::uint64_t { kTimerRound = 1, kTimerInstalled };

  void send_round(OflopsContext& ctx);

  Config cfg_;
  Phase phase_ = Phase::kIdle;
  bool done_ = false;
  std::size_t round_ = 0;
  /// When the round's install first went out; a round the context sends
  /// again after an outage keeps it, so its sample includes the outage.
  Picos t_send_ = 0;
  std::uint64_t packet_ins_seen_ = 0;

  SampleSet idle_rtt_us_;
  SampleSet storm_rtt_us_;
};

}  // namespace osnt::oflops
