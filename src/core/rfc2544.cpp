#include "osnt/core/rfc2544.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::core {
namespace {

constexpr std::array<std::size_t, 7> kRfc2544Sizes = {64,  128, 256, 512,
                                                      1024, 1280, 1518};

constexpr double kSearchFloor = 0.02;  ///< fraction of line rate
constexpr double kSearchCeiling = 1.0;  ///< search ceiling

double load_to_gbps(double load_fraction, std::size_t frame_size) {
  const double line = net::max_frame_rate(frame_size, 10.0) *
                      static_cast<double>(frame_size + net::kEthPerFrameOverhead) *
                      8.0 / 1e9;
  return line * load_fraction;  // line == 10.0 by construction
}

TrialStats probe(const Trial& run, double load, std::size_t frame_size) {
  TrialPoint p;
  p.load_fraction = load;
  p.frame_size = frame_size;
  return run(p);
}

}  // namespace

std::span<const std::size_t> rfc2544_frame_sizes() noexcept {
  return {kRfc2544Sizes.data(), kRfc2544Sizes.size()};
}

void validate(const ThroughputSearchConfig& cfg) {
  constexpr double kSpan = kSearchCeiling - kSearchFloor;
  // Written so that NaN fails too.
  if (cfg.resolution > 0.0 && cfg.resolution < kSpan) return;
  char msg[96];
  std::snprintf(msg, sizeof msg, "resolution must be in (0, %g), got %g",
                kSpan, cfg.resolution);
  throw std::invalid_argument(msg);
}

ThroughputPoint find_throughput(const Trial& run, std::size_t frame_size,
                                ThroughputSearchConfig cfg) {
  validate(cfg);
  ThroughputPoint pt;
  pt.frame_size = frame_size;

  double lo = kSearchFloor;
  double hi = kSearchCeiling;
  // Try the ceiling first: a wire-rate DUT should exit in one trial.
  TrialStats best{};
  double best_load = 0.0;
  {
    TrialStats s = probe(run, hi, frame_size);
    ++pt.trials;
    if (s.loss_fraction() <= cfg.loss_tolerance) {
      best = std::move(s);
      best_load = hi;
      lo = hi;
    }
  }
  while (hi - lo > cfg.resolution && best_load != hi) {
    const double mid = (lo + hi) / 2.0;
    if (mid == lo || mid == hi) break;  // lo and hi are adjacent doubles
    TrialStats s = probe(run, mid, frame_size);
    ++pt.trials;
    if (s.loss_fraction() <= cfg.loss_tolerance) {
      best = std::move(s);
      best_load = mid;
      lo = mid;
    } else {
      hi = mid;
    }
  }

  pt.max_load_fraction = best_load;
  pt.gbps = best_load > 0 ? load_to_gbps(best_load, frame_size) : 0.0;
  pt.mpps = best_load > 0
                ? net::max_frame_rate(frame_size, 10.0) * best_load / 1e6
                : 0.0;
  pt.latency_at_max_ns = std::move(best.latency_ns);
  return pt;
}

std::vector<ThroughputPoint> throughput_sweep(
    const Trial& run, std::span<const std::size_t> frame_sizes,
    ThroughputSearchConfig cfg, const RunnerConfig& runner) {
  // One task per frame size: the binary search inside a size is
  // sequential, but sizes share no state. Results land at their size's
  // index, so the output is identical for any job count.
  // A size whose search dies (watchdog kill, trial failure) yields a
  // flagged zero point instead of aborting its siblings: a sweep under
  // fault injection completes with partial results.
  std::vector<ThroughputPoint> out(frame_sizes.size());
  Runner{runner}.for_each(frame_sizes.size(), [&](std::size_t i) {
    try {
      out[i] = find_throughput(run, frame_sizes[i], cfg);
    } catch (const sim::WatchdogError& e) {
      out[i] = ThroughputPoint{};
      out[i].frame_size = frame_sizes[i];
      out[i].outcome = TrialOutcome::kTimedOut;
      out[i].error = e.what();
    } catch (const std::exception& e) {
      out[i] = ThroughputPoint{};
      out[i].frame_size = frame_sizes[i];
      out[i].outcome = TrialOutcome::kFailed;
      out[i].error = e.what();
    }
  });
  return out;
}

std::vector<LossPoint> loss_rate_sweep(const Trial& run,
                                       std::size_t frame_size, double hi,
                                       double step,
                                       const RunnerConfig& runner) {
  TrialPlan plan;
  plan.run = run;
  for (double load = hi; load > step / 2; load -= step) {
    TrialPoint p;
    p.load_fraction = load;
    p.frame_size = frame_size;
    plan.points.push_back(p);
  }
  // Resilient: a failed rung is flagged and zeroed, the ladder completes.
  const auto results = Runner{runner}.run_resilient(plan);
  std::vector<LossPoint> out;
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialStats& s = results[i].stats;
    out.push_back({plan.points[i].load_fraction, s.loss_fraction(),
                   s.offered_gbps, results[i].outcome});
  }
  return out;
}

}  // namespace osnt::core
