// SNMP agent model: the third measurement channel OFLOPS-turbo consumes.
// Real agents answer with noticeable delay and serve counter *snapshots*
// refreshed on a coarse interval — both effects are modelled, because
// they are why SNMP alone cannot time dataplane events precisely.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "osnt/common/random.hpp"
#include "osnt/common/time.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::dut {

struct SnmpConfig {
  /// Agent response latency (mean) and jitter (1 sigma).
  Picos response_latency = 5 * kPicosPerMilli;
  double response_jitter_ms = 1.0;
  /// Counters are snapshotted into the agent MIB at this period.
  Picos refresh_interval = 1 * kPicosPerSec;
  std::uint64_t seed = 23;
};

class SnmpAgent {
 public:
  using Config = SnmpConfig;
  using CounterFn = std::function<std::uint64_t()>;
  using ResponseFn = std::function<void(std::string oid, std::uint64_t value,
                                        Picos answered_at)>;

  SnmpAgent(sim::Engine& eng, Config cfg = Config());

  /// Expose a live counter under `oid`. The agent snapshots it on its
  /// refresh schedule; polls observe the snapshot, not the live value.
  void register_counter(const std::string& oid, CounterFn fn);

  /// Asynchronous GET: `cb` fires after the response latency with the
  /// *snapshotted* value. Unknown OIDs answer with value 0.
  void get(const std::string& oid, ResponseFn cb);

  [[nodiscard]] std::uint64_t polls_served() const noexcept { return polls_; }
  [[nodiscard]] Picos refresh_interval() const noexcept {
    return cfg_.refresh_interval;
  }

 private:
  void refresh_if_due();

  sim::Engine* eng_;
  Config cfg_;
  Rng rng_;
  std::unordered_map<std::string, CounterFn> live_;
  std::unordered_map<std::string, std::uint64_t> snapshot_;
  Picos last_refresh_ = -1;
  std::uint64_t polls_ = 0;
};

}  // namespace osnt::dut
