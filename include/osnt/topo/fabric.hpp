// Multi-tester fabric harness — the paper's closing vision ("deployments
// may see the use of hundreds or thousands of testers, offering
// previously unobtainable insights"). Builds a leaf-spine fabric of
// legacy switch blocks in one graph::Graph, with one OSNT tester per edge
// port, statically programmed (no flooding, loop-safe), and measures
// one-way latency between any tester pair using GPS-synchronized
// timestamps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "osnt/common/stats.hpp"
#include "osnt/core/device.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::topo {

struct FabricConfig {
  std::size_t leaves = 2;
  std::size_t spines = 2;
  std::size_t testers_per_leaf = 2;
};

class LeafSpineFabric {
 public:
  using Config = FabricConfig;

  LeafSpineFabric(sim::Engine& eng, Config cfg = Config());

  LeafSpineFabric(const LeafSpineFabric&) = delete;
  LeafSpineFabric& operator=(const LeafSpineFabric&) = delete;

  [[nodiscard]] std::size_t tester_count() const noexcept {
    return testers_.size();
  }
  [[nodiscard]] core::OsntDevice& tester(std::size_t i) {
    return *testers_.at(i);
  }
  [[nodiscard]] dut::LegacySwitch& leaf(std::size_t i) { return *leaves_.at(i); }
  [[nodiscard]] dut::LegacySwitch& spine(std::size_t i) {
    return *spines_.at(i);
  }
  [[nodiscard]] std::size_t leaf_of(std::size_t tester) const noexcept {
    return tester / cfg_.testers_per_leaf;
  }
  /// Deterministic addressing for tester i.
  [[nodiscard]] net::MacAddr tester_mac(std::size_t i) const noexcept;
  [[nodiscard]] net::Ipv4Addr tester_ip(std::size_t i) const noexcept;
  /// The spine that carries traffic *to* tester i (static ECMP-by-dst).
  [[nodiscard]] std::size_t spine_of(std::size_t tester) const noexcept {
    return tester % cfg_.spines;
  }
  /// Number of switch hops on the i→j path (0 if i == j).
  [[nodiscard]] std::size_t hops(std::size_t i, std::size_t j) const noexcept;

  /// One-way latency (ns) for `frames` probe frames from tester `src` to
  /// tester `dst`, using embedded TX timestamps against the destination
  /// card's GPS-disciplined capture stamps. Throws std::invalid_argument
  /// on a bad pair or 0 frames.
  [[nodiscard]] SampleSet measure_latency(std::size_t src, std::size_t dst,
                                          std::size_t frames = 200,
                                          double pps = 100'000.0,
                                          std::size_t frame_size = 256);

 private:
  sim::Engine* eng_;
  Config cfg_;
  graph::Graph graph_;
  std::vector<std::unique_ptr<core::OsntDevice>> testers_;
  std::vector<dut::LegacySwitch*> leaves_;  ///< owned by graph_
  std::vector<dut::LegacySwitch*> spines_;
};

}  // namespace osnt::topo
