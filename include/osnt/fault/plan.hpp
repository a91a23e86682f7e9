// Deterministic fault-injection plans: a FaultPlan is a sim-time schedule
// of typed fault events — link flaps, BER windows/ramps, latency-jitter
// spikes, DMA stalls, control-channel outages, GPS loss — built
// programmatically or parsed from JSON (`osnt_run --faults plan.json`).
// A plan is pure data: the same plan applied to the same seeded testbed
// replays bit-identically (see DESIGN.md §10). The Injector (injector.hpp)
// turns a plan into scheduled engine events through the models' seams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "osnt/common/time.hpp"

namespace osnt::fault {

enum class FaultKind : std::uint8_t {
  kLinkFlap = 0,    ///< link down at `at`, back up after `duration`
  kBerWindow,       ///< bit-error window, optional linear ramp-in
  kLatencySpike,    ///< extra one-way delay window on a link
  kDmaStall,        ///< freeze the DMA bus for `duration`
  kCtrlDisconnect,  ///< control link unavailable for `duration`
  kGpsLoss,         ///< GPS antenna gone → oscillator holdover
  kRateLimit,       ///< retime a named token_bucket's rate/burst
  kQueueCap,        ///< cap a named queue/bucket's frame budget
};
inline constexpr std::size_t kFaultKindCount = 8;

/// The JSON "type" names, in FaultKind order.
inline constexpr const char* kFaultKindNames[kFaultKindCount] = {
    "link_flap",       "ber_window", "latency_spike", "dma_stall",
    "ctrl_disconnect", "gps_loss",   "rate_limit",    "queue_cap"};

[[nodiscard]] constexpr const char* fault_kind_name(FaultKind k) noexcept {
  return kFaultKindNames[static_cast<std::size_t>(k)];
}

/// One scheduled fault. Fields beyond {kind, at, duration} apply only to
/// the kinds that document them; the rest ignore them.
struct FaultEvent {
  FaultKind kind = FaultKind::kLinkFlap;
  Picos at = 0;        ///< sim time the fault begins
  Picos duration = 0;  ///< how long the condition holds (0 = instantaneous)
  int link = -1;       ///< target port's out-link; -1 = all of them
  double ber = 0.0;    ///< kBerWindow: plateau error rate (errors/bit)
  Picos ramp = 0;      ///< kBerWindow/kRateLimit: linear ramp length
  Picos extra_delay = 0;  ///< kLatencySpike: added one-way delay
  /// kRateLimit/kQueueCap: graph block name the fault retimes. Resolved
  /// at Injector construction, against the graph in `Targets`; an unknown
  /// name is a hard error (unlike link faults, which skip-with-warning —
  /// a chaos plan aimed at a block that does not exist is a bad plan,
  /// not a benign mismatch).
  std::string target;
  double rate_gbps = 0.0;        ///< kRateLimit: new bucket rate (> 0)
  std::int64_t burst_bytes = -1; ///< kRateLimit: new burst; -1 = keep
  std::size_t queue_frames = 0;  ///< kQueueCap: new frame budget (>= 1)
};

/// Plan parse/validation failure (malformed JSON, bad field, bad value).
class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultPlan {
  /// Base seed for per-event randomness (BER streams): event ordinal i
  /// draws from a stream seeded by a splitmix of `seed` and i, so plans
  /// replay identically and events don't share streams.
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;

  // Builder interface (chainable) for programmatic plans and tests.
  FaultPlan& link_flap(Picos at, Picos duration, int link = -1);
  FaultPlan& ber_window(Picos at, Picos duration, double ber, Picos ramp = 0,
                        int link = -1);
  FaultPlan& latency_spike(Picos at, Picos duration, Picos extra,
                           int link = -1);
  FaultPlan& dma_stall(Picos at, Picos duration);
  FaultPlan& ctrl_disconnect(Picos at, Picos duration);
  FaultPlan& gps_loss(Picos at, Picos duration);
  FaultPlan& rate_limit(Picos at, Picos duration, std::string target,
                        double rate_gbps, Picos ramp = 0,
                        std::int64_t burst_bytes = -1);
  FaultPlan& queue_cap(Picos at, Picos duration, std::string target,
                       std::size_t queue_frames);

  /// Validate fields and stable-sort events by start time. Throws
  /// PlanError on out-of-range values. Idempotent; the Injector calls it.
  void normalize();

  /// Parse a plan from JSON text / a JSON file. Schema (times accept the
  /// suffixes _ns/_us/_ms):
  ///   {"seed": 7, "events": [
  ///      {"type": "link_flap", "at_us": 100, "duration_us": 50, "link": 0},
  ///      {"type": "ber_window", "at_us": 0, "duration_us": 200,
  ///       "ber": 1e-6, "ramp_us": 40},
  ///      {"type": "latency_spike", "at_us": 10, "duration_us": 5,
  ///       "extra_ns": 800},
  ///      {"type": "dma_stall", "at_us": 120, "duration_us": 30},
  ///      {"type": "ctrl_disconnect", "at_ms": 1, "duration_ms": 4},
  ///      {"type": "gps_loss", "at_ms": 0, "duration_ms": 900},
  ///      {"type": "rate_limit", "at_ms": 5, "duration_ms": 10,
  ///       "target": "policer", "rate_gbps": 0.5, "ramp_ms": 2,
  ///       "burst_bytes": 15000},
  ///      {"type": "queue_cap", "at_ms": 5, "duration_ms": 10,
  ///       "target": "bottleneck", "queue_frames": 32}]}
  /// Unknown types and unknown keys are hard errors — a typoed fault that
  /// silently never fires would invalidate an experiment. Errors carry
  /// the offending value's line/column and a did-you-mean suggestion.
  [[nodiscard]] static FaultPlan from_json(const std::string& text);
  [[nodiscard]] static FaultPlan load(const std::string& path);

  /// One-line human summary ("4 events over 1.2 ms: 2 link_flap, ...").
  [[nodiscard]] std::string summary() const;
};

}  // namespace osnt::fault
