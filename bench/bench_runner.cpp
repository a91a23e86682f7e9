// Trial-throughput scaling gate for core::Runner: the same 16-trial
// RFC 2544-style workload (real sim::Engine testbed per trial) executed
// with 1..N workers. trials/sec should scale with cores because trials are
// seed-isolated; BENCH_runner.json (tools/bench_engine_snapshot.sh)
// records the measured curve plus the host's hardware_concurrency so the
// ratio is interpretable.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <thread>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/rfc2544.hpp"
#include "osnt/core/runner.hpp"

namespace {

using namespace osnt;

/// One RFC 2544-style trial: fresh simulated testbed, 0.2 ms of offered
/// traffic, loss + latency out. This is the per-trial unit of work the
/// runner shards.
core::TrialStats sim_trial(const core::TrialPoint& pt) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::line_rate(pt.load_fraction);
  spec.frame_size = pt.frame_size;
  spec.seed = pt.seed;
  return core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli / 5);
}

/// 16-point frame-loss ladder at 256 B — 16 independent simulations per
/// iteration, fanned across `jobs` workers.
void BM_LossLadder16Trials(benchmark::State& state) {
  core::RunnerConfig rc;
  rc.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto ladder = core::loss_rate_sweep(sim_trial, 256, 1.0,
                                              1.0 / 16.0, rc);
    benchmark::DoNotOptimize(ladder.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.counters["jobs"] = static_cast<double>(rc.jobs);
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_LossLadder16Trials)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
