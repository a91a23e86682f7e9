// packet_out path latency (controller → data plane): the mirror image of
// packet_in. The controller injects frames through the switch agent; the
// OSNT monitor timestamps them at the MAC, so the measurement combines
// the control channel, agent service time, and egress path.
#pragma once

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct PacketOutLatencyConfig {
  std::size_t count = 200;
  Picos interval = 2 * kPicosPerMilli;
  std::uint16_t out_port = 2;  ///< OF port = OSNT capture port 1
};

class PacketOutLatencyModule final : public MeasurementModule {
 public:
  using Config = PacketOutLatencyConfig;

  explicit PacketOutLatencyModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override {
    return "packet_out_latency";
  }
  void start(OflopsContext& ctx) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  void on_capture(OflopsContext& ctx, const mon::CaptureRecord& rec) override;
  /// Every frame is in, or kAnswerGrace has passed since the last
  /// packet_out: an outage loses frames, which the report's count shows.
  [[nodiscard]] bool finished() const override {
    return received_ >= cfg_.count || grace_over_;
  }
  [[nodiscard]] Report report() const override;

 private:
  Config cfg_;
  bool grace_over_ = false;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
  SampleSet latency_us_;
};

}  // namespace osnt::oflops
