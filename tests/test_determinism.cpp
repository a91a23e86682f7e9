// Determinism: the whole simulation is seeded and single-threaded, so an
// identical scenario must reproduce bit-identical results — the property
// that makes regression comparisons and distributed debugging possible.
#include <gtest/gtest.h>

#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/flowmod_latency.hpp"
#include "switch_graph.hpp"

namespace osnt {
namespace {

core::TrialStats run_scenario() {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  graph::Graph g{eng};
  g.emplace<dut::LegacySwitch>(eng, "sw");
  test::plug(g, "sw", 0, osnt.port(0));
  test::plug(g, "sw", 1, osnt.port(1));
  net::PacketBuilder b;
  (void)osnt.port(1).tx().transmit(
      b.eth(net::MacAddr::from_index(2), net::MacAddr::from_index(1))
          .ipv4(net::Ipv4Addr::of(10, 0, 1, 1), net::Ipv4Addr::of(10, 0, 0, 1),
                net::ipproto::kUdp)
          .udp(5001, 1024)
          .build());
  eng.run();
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(3.0);
  spec.frame_size = 512;
  spec.arrivals = core::TrafficSpec::Arrivals::kPoisson;  // uses the RNG
  spec.seed = 99;
  return core::run_capture_test(eng, osnt, 0, 1, spec, 2 * kPicosPerMilli);
}

TEST(Determinism, IdenticalScenariosBitIdentical) {
  const auto a = run_scenario();
  const auto b = run_scenario();
  EXPECT_EQ(a.tx_frames, b.tx_frames);
  EXPECT_EQ(a.rx_frames, b.rx_frames);
  EXPECT_EQ(a.captured, b.captured);
  ASSERT_EQ(a.latency_ns.count(), b.latency_ns.count());
  // Sample-for-sample equality, not just summary statistics.
  EXPECT_EQ(a.latency_ns.samples(), b.latency_ns.samples());
}

TEST(Determinism, DifferentSeedsDiffer) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(3.0);
  spec.arrivals = core::TrafficSpec::Arrivals::kPoisson;
  spec.seed = 1;
  const auto a = core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli);
  sim::Engine eng2;
  core::OsntDevice osnt2{eng2};
  hw::connect(osnt2.port(0), osnt2.port(1));
  spec.seed = 2;
  const auto b =
      core::run_capture_test(eng2, osnt2, 0, 1, spec, kPicosPerMilli);
  // Different Poisson draws → different frame counts (with high odds).
  EXPECT_NE(a.latency_ns.samples(), b.latency_ns.samples());
}

TEST(Determinism, OflopsModuleReproduces) {
  auto run_once = [] {
    dut::OpenFlowSwitchConfig sw_cfg;
    sw_cfg.commit_base = kPicosPerMilli;
    oflops::Testbed tb{sw_cfg};
    oflops::FlowModLatencyConfig cfg;
    cfg.rounds = 4;
    cfg.table_size = 8;
    oflops::FlowModLatencyModule mod{cfg};
    const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
    for (const auto& [name, d] : rep.distributions)
      if (name == "data_plane_ms") return d.samples();
    return std::vector<double>{};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, RandomizedScheduleCancelInterleaving) {
  // Hammer the event core with a seeded mix of schedules (including
  // reentrant ones from inside callbacks) and cancellations; two runs must
  // produce the identical firing sequence. This pins down FIFO tie-breaks,
  // slot reuse, and lazy-cancellation skimming under slab churn.
  auto run_once = [](std::uint64_t seed) {
    Rng rng{seed};
    sim::Engine eng;
    std::vector<std::pair<Picos, int>> fired;
    std::vector<sim::EventId> ids;
    int label = 0;
    for (int i = 0; i < 2000; ++i) {
      const auto t = static_cast<Picos>(rng.uniform_int(0, 5000));
      const int my = label++;
      ids.push_back(eng.schedule_at(t, [&, my] {
        fired.emplace_back(eng.now(), my);
        // A third of callbacks reschedule, exercising reentrant slab use.
        if (my % 3 == 0) {
          const int child = 100000 + my;
          eng.schedule_in(static_cast<Picos>(my % 7), [&, child] {
            fired.emplace_back(eng.now(), child);
          });
        }
      }));
      // Cancel a random earlier event now and then; some targets will
      // already have fired or been cancelled, which must be a no-op.
      if (i % 5 == 0) {
        eng.run_until(static_cast<Picos>(rng.uniform_int(0, 2500)));
        (void)eng.cancel(ids[rng.uniform_int(0, ids.size() - 1)]);
      }
    }
    eng.run();
    return fired;
  };
  const auto a = run_once(0xD5EEDULL);
  EXPECT_EQ(a, run_once(0xD5EEDULL));
  EXPECT_NE(a, run_once(0xFEEDULL));
  // Times never go backwards within one run.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].first, a[i].first);
  }
}

}  // namespace
}  // namespace osnt
