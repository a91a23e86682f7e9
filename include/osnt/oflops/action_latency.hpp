// Action-processing latency module (an OFLOPS scenario): compares the
// data-plane latency of a plain-forward rule against a rule that also
// rewrites headers (VLAN set). Switches that punt modifications to a
// slow path show a dramatic gap — invisible to control-plane-only tools,
// measurable with OSNT's per-packet timestamps.
#pragma once

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct ActionLatencyConfig {
  std::size_t samples_per_mode = 200;
  Picos settle = 20 * kPicosPerMilli;
};

class ActionLatencyModule final : public MeasurementModule {
 public:
  using Config = ActionLatencyConfig;

  explicit ActionLatencyModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "action_latency"; }
  void start(OflopsContext& ctx) override;
  void on_capture(OflopsContext& ctx, const mon::CaptureRecord& rec) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override;

 private:
  enum class Mode { kInstallPlain, kPlain, kInstallModify, kModify, kDone };
  enum : std::uint64_t { kTimerSettled = 1, kTimerInstalled };

  void install_rule(OflopsContext& ctx, bool with_modify);

  Config cfg_;
  Mode mode_ = Mode::kInstallPlain;
  bool done_ = false;

  SampleSet plain_ns_;
  SampleSet modify_ns_;
};

}  // namespace osnt::oflops
