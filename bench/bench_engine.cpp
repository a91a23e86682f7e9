// Event-core throughput: the scheduler is the ceiling on how many
// packets/sec the whole tester can model, so its events/sec budget is a
// first-class benchmarked quantity (cf. MoonGen / P4TG generator cores).
//
// Compiles against both the legacy shared_ptr<std::function> engine and
// the move-only slab engine: when EventFn is copyable (legacy), closures
// use the historical make_shared-to-make-it-copyable idiom; when it is
// move-only, payloads are captured by move. Each engine is therefore
// measured with its idiomatic call-site pattern.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "osnt/burst/source.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"

namespace {

using osnt::Picos;
using osnt::sim::Engine;
using osnt::sim::EventId;

constexpr bool kMoveOnlyEngine =
    !std::is_copy_constructible_v<osnt::sim::EventFn>;

/// Schedule + fire throughput with trivial closures and colliding times —
/// the pure scheduler overhead floor.
void BM_ScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  Engine eng;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      eng.schedule_in((i * 7919) % 4096, [&fired] { ++fired; });
    }
    eng.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * batch);
}
// 256 ~ the simulator's steady-state pending count (ports x in-flight
// events + timers); 1024/16384 stress cache-bound deep-queue behavior.
BENCHMARK(BM_ScheduleFire)->Arg(256)->Arg(1024)->Arg(16384);

/// Schedule/cancel churn: half of every batch is cancelled before it can
/// fire, exercising the lazy-cancellation bookkeeping.
void BM_ScheduleCancelChurn(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Engine eng;
  std::uint64_t fired = 0;
  std::vector<EventId> ids;
  ids.reserve(batch);
  for (auto _ : state) {
    ids.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(
          eng.schedule_in(static_cast<Picos>((i * 37) % 512), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < batch; i += 2) eng.cancel(ids[i]);
    eng.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleCancelChurn)->Arg(1024);

osnt::net::Packet make_frame(std::size_t payload) {
  return osnt::net::Packet{osnt::Bytes(payload, 0xa5)};
}

/// One 10G port modelled as a self-rescheduling event chain that carries a
/// real frame through every hop — the link/MAC/DMA hot-path shape.
struct PortChain {
  Engine* eng;
  std::uint64_t remaining;
  std::uint64_t delivered = 0;
  Picos gap;

  void arm(osnt::net::Packet pkt) {
    if constexpr (kMoveOnlyEngine) {
      eng->schedule_in(gap, [this, pkt = std::move(pkt)]() mutable {
        hop(std::move(pkt));
      });
    } else {
      // Legacy idiom: wrap the payload in a shared_ptr so the closure is
      // copyable, exactly as the seed call sites did.
      auto shared = std::make_shared<osnt::net::Packet>(std::move(pkt));
      eng->schedule_in(gap, [this, shared] { hop(std::move(*shared)); });
    }
  }

  void hop(osnt::net::Packet pkt) {
    ++delivered;
    benchmark::DoNotOptimize(pkt.bytes().data());
    if (--remaining > 0) arm(std::move(pkt));
  }
};

/// Mixed 4-port line-rate event storm: four interleaved packet-carrying
/// chains with staggered serialization gaps (64B wire times at 10G).
void BM_LineRateStorm4Port(benchmark::State& state) {
  const auto per_port = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    PortChain ports[4];
    for (int p = 0; p < 4; ++p) {
      ports[p].eng = &eng;
      ports[p].remaining = per_port;
      // 64B frame + overhead at 10G ≈ 67.2 ns; stagger so the four chains
      // interleave rather than fire in lockstep.
      ports[p].gap = 67'200 + 100 * p;
      ports[p].arm(make_frame(256));
    }
    eng.run();
    benchmark::DoNotOptimize(ports[0].delivered);
  }
  state.SetItemsProcessed(state.iterations() * 4 *
                          static_cast<std::int64_t>(per_port));
}
BENCHMARK(BM_LineRateStorm4Port)->Arg(4096);

/// Burst-generator emission throughput, 64 B on/off at 10G. First arg:
/// 1 = the batched MoonGen-style hot path (one event per burst, SoA
/// walk, template clones); 0 = the naive baseline (one event per frame,
/// each crafting its packet from scratch). Second arg: 1 = wired to a
/// sink through a real graph edge; 0 = dark output port, isolating the
/// emission machinery itself. Same schedule, identical frames either
/// way — only the emission mechanism differs.
///
/// The BENCH_engine.json `burst_pps` gate compares the dark-port pair:
/// through a wire, both modes pay the identical per-frame Link delivery
/// event (~the BM_ScheduleFire floor), which bounds any end-to-end
/// ratio near 2x no matter how cheap emission gets — the wired pair is
/// reported for that context, the dark pair for the machinery delta.
void BM_BurstEmission(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    Engine eng;
    osnt::graph::Graph g{eng};
    osnt::burst::BurstSourceConfig cfg;
    cfg.pattern.pattern = osnt::burst::Pattern::kOnOff;
    cfg.pattern.rate_gbps = 10.0;
    cfg.pattern.frame_size = 64;
    cfg.pattern.period = 100 * osnt::kPicosPerMicro;
    cfg.pattern.duty = 0.5;
    cfg.batched = batched;
    cfg.horizon = 2 * osnt::kPicosPerMilli;
    auto& src = g.emplace<osnt::burst::BurstSourceBlock>(eng, "src", cfg);
    if (state.range(1) != 0) {
      g.emplace<osnt::graph::SinkBlock>(eng, "sink");
      g.connect("src", 0, "sink", 0);
    }
    g.start();
    eng.run();
    frames += src.frames_out() + src.drops();
    benchmark::DoNotOptimize(src.wire_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_BurstEmission)->Args({1, 1})->Args({0, 1})->Args({1, 0})->Args({0, 0});

}  // namespace

BENCHMARK_MAIN();
