// The Part II headline measurement: latency to modify a flow-table entry,
// measured simultaneously on the control plane (barrier RTT) and the data
// plane (first probe packet observed on the rule's new output path, using
// OSNT's high-precision capture). The gap between the two is the classic
// OFLOPS finding: switches acknowledge rules before hardware applies them.
//
// Topology convention (Testbed): OSNT port 0 generates the probe flow into
// switch port 1; the rule alternates its output between switch ports 2 and
// 3, captured by OSNT ports 1 and 2.
#pragma once

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"
#include "osnt/openflow/match.hpp"

namespace osnt::oflops {

struct FlowModLatencyConfig {
  /// Rules in the table while measuring, the probe rule included.
  std::size_t table_size = 64;
  std::size_t rounds = 20;       ///< redirect cycles measured
  Picos settle = 50 * kPicosPerMilli;  ///< pause between rounds
};

class FlowModLatencyModule final : public MeasurementModule {
 public:
  using Config = FlowModLatencyConfig;

  explicit FlowModLatencyModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "flowmod_latency"; }
  void start(OflopsContext& ctx) override;
  void on_capture(OflopsContext& ctx, const mon::CaptureRecord& rec) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override;

 private:
  enum class Phase { kFill, kWarmup, kMeasure, kDone };
  enum : std::uint64_t {
    kTimerNextRound = 1,
    kTimerStartProbe,
    kTimerFilled,
    kTimerRedirected
  };

  void send_redirect(OflopsContext& ctx);
  void maybe_finish_round(OflopsContext& ctx);
  [[nodiscard]] openflow::FlowMod probe_rule(std::uint16_t out_port) const;

  Config cfg_;
  Phase phase_ = Phase::kFill;
  bool done_ = false;

  std::size_t round_ = 0;
  std::uint8_t target_osnt_port_ = 1;  ///< where the *current* rule points
  Picos t_send_ = 0;
  /// The switch has not yet acknowledged the round's redirect. A redirect
  /// the context sends again after an outage keeps its round's t_send_,
  /// so the control sample includes the outage.
  bool awaiting_ack_ = false;
  bool awaiting_data_ = false;

  SampleSet ctrl_ms_;
  SampleSet data_ms_;
};

}  // namespace osnt::oflops
