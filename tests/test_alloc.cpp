// Heap-allocation counts of closed-loop set-up. This binary replaces the
// global operator new and delete (alloc_hooks.cpp), so a test can count
// every allocation made between two points. A constructed flow owns one
// heap object, its congestion controller; its queues allocate when it
// first sends and first measures a delivery rate, not before.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>

#include "osnt/common/fifo.hpp"
#include "osnt/core/device.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/workload.hpp"

namespace osnt::test {
/// Allocations since the program started (alloc_hooks.cpp).
std::uint64_t allocations() noexcept;
}  // namespace osnt::test

namespace {

/// Allocations made since construction.
class AllocCount {
 public:
  [[nodiscard]] std::uint64_t get() const {
    return osnt::test::allocations() - start_;
  }

 private:
  std::uint64_t start_ = osnt::test::allocations();
};

}  // namespace

namespace osnt::tcp {
namespace {

TEST(Alloc, FifoAllocatesOnItsFirstPushOnly) {
  const AllocCount n;
  Fifo<std::uint64_t> q;
  q.clear();
  EXPECT_EQ(n.get(), 0u);
  for (std::uint64_t v = 0; v < Fifo<std::uint64_t>::kFirstCapacity; ++v) {
    q.push_back(v);
  }
  EXPECT_EQ(n.get(), 1u);
  q.clear();
  for (std::uint64_t v = 0; v < Fifo<std::uint64_t>::kFirstCapacity; ++v) {
    q.push_back(v);
  }
  EXPECT_EQ(n.get(), 1u);  // clear() kept the buffer
}

TEST(Alloc, WorkloadConstructionAllocatesAtMostOncePerFlow) {
  constexpr std::size_t kFlows = 1000;
  // The workload's own vectors, its source and taps: independent of N.
  constexpr std::uint64_t kFixed = 64;
  sim::Engine eng;
  core::OsntDevice dev{eng};
  hw::connect(dev.port(kTxPort), dev.port(kRxPort));
  WorkloadConfig cfg;
  cfg.flows = kFlows;
  cfg.bottleneck_gbps = 5.0;

  std::optional<ClosedLoopWorkload> w;
  const AllocCount construction;
  w.emplace(eng, dev, cfg);
  const std::uint64_t constructed = construction.get();

  const AllocCount start;
  w->start();
  const std::uint64_t started = start.get();

  std::printf("%zu flows: construction %llu allocations, start() %llu\n",
              kFlows, static_cast<unsigned long long>(constructed),
              static_cast<unsigned long long>(started));
  EXPECT_LE(constructed, kFlows + kFixed);
}

}  // namespace
}  // namespace osnt::tcp
