// packet_in path latency: probes that miss the (empty) flow table are
// punted to the controller; latency is measured from the OSNT-embedded
// transmit timestamp (which survives inside the packet_in payload) to the
// controller's receive time — data-plane TX precision applied to a
// control-plane measurement, the OSNT+OFLOPS integration point.
#pragma once

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct PacketInLatencyConfig {
  std::size_t probes = 200;
};

class PacketInLatencyModule final : public MeasurementModule {
 public:
  using Config = PacketInLatencyConfig;

  explicit PacketInLatencyModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "packet_in_latency"; }
  void start(OflopsContext& ctx) override;
  void on_of_message(OflopsContext& ctx,
                     const openflow::Decoded& msg) override;
  [[nodiscard]] bool finished() const override {
    return received_ >= cfg_.probes;
  }
  [[nodiscard]] Report report() const override;

 private:
  Config cfg_;
  std::size_t received_ = 0;
  SampleSet latency_us_;
};

}  // namespace osnt::oflops
