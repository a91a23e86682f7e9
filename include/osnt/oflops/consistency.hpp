// Forwarding consistency during large flow-table updates (demo Part II,
// second measurement): N flows forward via port A; all N rules are then
// redirected to port B in one burst. Because the switch commits rules to
// hardware asynchronously and serially, there is a window where some
// flows follow the new rules while others still follow the old ones.
// OSNT's per-packet capture quantifies that window precisely.
#pragma once

#include <unordered_map>
#include <vector>

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

struct ConsistencyConfig {
  /// Largest update burst the module measures.
  static constexpr std::size_t kMaxRules = 1024;
  std::size_t rule_count = 128;        ///< rules updated, [1, kMaxRules]
  double traffic_gbps = 1.0;           ///< aggregate probe load
  /// Traffic before the update burst, from when the first generation is
  /// in hardware.
  Picos warmup = 100 * kPicosPerMilli;
  Picos drain = 200 * kPicosPerMilli;  ///< observation after the last switch
};

class ConsistencyModule final : public MeasurementModule {
 public:
  using Config = ConsistencyConfig;

  /// Throws std::invalid_argument when cfg.rule_count is outside
  /// [1, Config::kMaxRules].
  explicit ConsistencyModule(Config cfg = Config());

  [[nodiscard]] std::string name() const override {
    return "forwarding_consistency";
  }
  void start(OflopsContext& ctx) override;
  void on_capture(OflopsContext& ctx, const mon::CaptureRecord& rec) override;
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override;

 private:
  enum class Phase { kInstall, kWarmup, kUpdating, kDrain, kDone };
  enum : std::uint64_t {
    kTimerAcked = 1,  ///< the first generation reached the agent
    kTimerInstalled,  ///< ... and its hardware table
    kTimerBurst,
    kTimerBurstAcked,  ///< nothing waits for it: the data plane tells
    kTimerFinish
  };

  /// One rule per flow, every flow → `out_port`.
  [[nodiscard]] std::vector<openflow::FlowMod> generation(
      std::uint16_t out_port) const;
  [[nodiscard]] int flow_of_record(const mon::CaptureRecord& rec) const;

  Config cfg_;
  Phase phase_ = Phase::kInstall;
  bool done_ = false;

  Picos t_burst_ = 0;
  std::vector<double> first_on_new_ns_;  ///< per flow; <0 = not yet seen
  std::size_t flows_switched_ = 0;
  std::uint64_t stale_packets_ = 0;  ///< old path after the burst
  std::uint64_t new_packets_ = 0;
  std::uint64_t pre_burst_packets_ = 0;

  SampleSet install_time_ms_;  ///< per-rule data-plane effective time
};

}  // namespace osnt::oflops
