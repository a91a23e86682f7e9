// Card bring-up self-test: loop each generator port back to a monitor
// port, push a burst, and verify counters, timestamps and capture
// integrity — what the OSNT driver runs before trusting a card.
#pragma once

#include <string>
#include <vector>

#include "osnt/core/device.hpp"

namespace osnt::core {

struct SelfTestResult {
  bool passed = true;
  std::vector<std::string> failures;  ///< human-readable diagnoses

  void fail(std::string why) {
    passed = false;
    failures.push_back(std::move(why));
  }
};

/// Runs on a device whose ports are NOT yet cabled: the test wires
/// port 2k → port 2k+1 internally (loopback pairs), drives 200 frames of
/// 512 B per pair, and checks: zero loss, in-order sequence numbers, hash
/// integrity of every capture, and timestamp sanity. The device is left
/// with those cables in place; use a fresh device for production wiring
/// afterwards.
[[nodiscard]] SelfTestResult run_self_test(sim::Engine& eng, OsntDevice& dev);

}  // namespace osnt::core
