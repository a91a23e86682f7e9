// Per-queue QoS measurement: install one rule per egress queue and
// measure each queue's achieved rate and added delay under identical
// offered load — OFLOPS-turbo's slicing-verification scenario. OSNT's
// per-packet timestamps expose the shaper behaviour directly.
#pragma once

#include <vector>

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct QueueDelayConfig {
  /// Queues to exercise (ids into the switch's queue_rates table).
  std::vector<std::uint32_t> queue_ids = {0, 1, 2};
  std::size_t frames_per_queue = 200;
  std::size_t frame_size = 512;
  double offered_gbps = 4.0;  ///< per run; above the slow queues' share
};

class QueueDelayModule final : public MeasurementModule {
 public:
  using Config = QueueDelayConfig;

  explicit QueueDelayModule(Config cfg = Config()) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "queue_delay"; }
  void start(OflopsContext& ctx) override;
  void on_capture(OflopsContext& ctx, const mon::CaptureRecord& rec) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override;

 private:
  enum : std::uint64_t { kTimerInstalled = 1, kTimerSettled };

  void start_queue_run(OflopsContext& ctx);

  Config cfg_;
  bool done_ = false;
  std::size_t current_ = 0;  ///< index into queue_ids

  struct PerQueue {
    SampleSet latency_us;
    tstamp::Timestamp first_rx;
    tstamp::Timestamp last_rx;
    std::uint64_t frames = 0;
  };
  std::vector<PerQueue> results_;
};

}  // namespace osnt::oflops
