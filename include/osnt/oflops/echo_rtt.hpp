// Baseline module: OpenFlow echo round-trip time. Calibrates the control
// channel + agent service time before interpreting flow_mod latencies.
#pragma once

#include <unordered_map>

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct EchoRttConfig {
  std::size_t count = 100;
  Picos interval = 10 * kPicosPerMilli;
};

class EchoRttModule final : public MeasurementModule {
 public:
  using Config = EchoRttConfig;

  explicit EchoRttModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "echo_rtt"; }
  void start(OflopsContext& ctx) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  void on_of_message(OflopsContext& ctx,
                     const openflow::Decoded& msg) override;
  /// Every reply is in, or kAnswerGrace has passed since the last
  /// request: an outage loses replies, which the report's count shows.
  [[nodiscard]] bool finished() const override {
    return replies_ >= cfg_.count || grace_over_;
  }
  [[nodiscard]] Report report() const override;

 private:
  Config cfg_;
  bool grace_over_ = false;
  std::size_t sent_ = 0;
  std::size_t replies_ = 0;
  std::unordered_map<std::uint32_t, Picos> in_flight_;
  SampleSet rtt_us_;
};

}  // namespace osnt::oflops
