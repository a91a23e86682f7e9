// Telemetry subsystem: log2 histogram bucket/quantile math, registry
// semantics and JSON shape, engine/pipeline flush-on-destruction, trace
// recorder output, and — the property the whole shard-and-merge design
// exists for — bit-identical sim-only registry snapshots for any
// core::Runner worker count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/histogram.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt {
namespace {

using telemetry::Log2Histogram;

// ---------------------------------------------------------------- buckets

TEST(TelemetryHistogram, BucketEdges) {
  // Bucket 0 holds only zero; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Log2Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Log2Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Log2Histogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Log2Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_lo(10), 512u);
  EXPECT_EQ(Log2Histogram::bucket_hi(10), 1023u);
  EXPECT_EQ(Log2Histogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Log2Histogram::bucket_hi(64), ~std::uint64_t{0});

  // Every value lands inside its own bucket's [lo, hi] span.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 255ull, 256ull, 65535ull,
                          1ull << 40, ~0ull}) {
    const std::size_t b = Log2Histogram::bucket_of(v);
    EXPECT_GE(v, Log2Histogram::bucket_lo(b)) << v;
    EXPECT_LE(v, Log2Histogram::bucket_hi(b)) << v;
  }
}

TEST(TelemetryHistogram, EmptyHistogram) {
  const Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(TelemetryHistogram, SingleValueStreamIsExact) {
  // Min/max clamping makes quantiles exact when every sample is equal —
  // the common case for constant-latency paths.
  Log2Histogram h;
  for (int i = 0; i < 10; ++i) h.record(7);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 70u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 7.0);
}

TEST(TelemetryHistogram, SingleSampleClampsToObservedValue) {
  // One sample of 1000 lives in bucket [512, 1023]; interpolation alone
  // would report 512, the clamp reports the truth.
  Log2Histogram h;
  h.record(1000);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1000.0);
}

TEST(TelemetryHistogram, DenseUniformQuantiles) {
  // 1..1024 fills buckets 1..10 completely; rank interpolation across a
  // full bucket is then exact: quantile(q) == sorted-rank interpolation
  // q*(n-1), same convention as SampleSet.
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1024; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1024u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_NEAR(h.quantile(0.50), 512.5, 1e-9);    // rank 511.5 -> 512.5
  EXPECT_NEAR(h.quantile(0.99), 1013.77, 1e-9);  // rank 1012.77
  EXPECT_NEAR(h.quantile(0.999), 1022.977, 1e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1024.0);
}

TEST(TelemetryHistogram, MergeEqualsCombinedRecording) {
  Log2Histogram a;
  Log2Histogram b;
  Log2Histogram both;
  for (std::uint64_t v : {3ull, 900ull, 17ull}) {
    a.record(v);
    both.record(v);
  }
  for (std::uint64_t v : {0ull, 65536ull, 5ull}) {
    b.record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), both.bucket_count(i)) << i;
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.5), both.quantile(0.5));
}

TEST(TelemetryHistogram, MergeWithEmptyPreservesMinMax) {
  Log2Histogram a;
  a.record(42);
  Log2Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
  empty.merge(a);
  EXPECT_EQ(empty.min(), 42u);
}

// --------------------------------------------------------------- registry

TEST(TelemetryRegistry, CounterGaugeHistogramBasics) {
  auto& reg = telemetry::registry();
  reg.reset();
  auto& c = reg.counter("test.reg.counter");
  c.inc();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  // Lookup-or-create returns the same stable object.
  EXPECT_EQ(&reg.counter("test.reg.counter"), &c);

  auto& g = reg.gauge("test.reg.gauge");
  g.set(5);
  g.update_max(3);
  EXPECT_EQ(g.value(), 5);
  g.update_max(8);
  EXPECT_EQ(g.value(), 8);

  auto& h = reg.histogram("test.reg.hist");
  h.record(100);
  Log2Histogram shard;
  shard.record(200);
  h.merge(shard);
  const Log2Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 2u);
  EXPECT_EQ(snap.sum(), 300u);
  EXPECT_EQ(snap.min(), 100u);
  EXPECT_EQ(snap.max(), 200u);
}

TEST(TelemetryRegistry, JsonShapeAndWallFiltering) {
  auto& reg = telemetry::registry();
  reg.reset();
  reg.counter("test.json.sim_counter").add(3);
  reg.counter("test.json.busy_ns.wall").add(12345);
  reg.gauge("test.json.jobs.wall").set(4);
  reg.histogram("test.json.hist").record(7);

  const std::string all = reg.to_json(telemetry::Snapshot::kAll);
  EXPECT_NE(all.find("\"counters\""), std::string::npos);
  EXPECT_NE(all.find("\"gauges\""), std::string::npos);
  EXPECT_NE(all.find("\"histograms\""), std::string::npos);
  EXPECT_NE(all.find("\"test.json.sim_counter\": 3"), std::string::npos);
  EXPECT_NE(all.find("test.json.busy_ns.wall"), std::string::npos);
  EXPECT_NE(all.find("\"p50\": 7"), std::string::npos);
  EXPECT_NE(all.find("\"buckets\": [[3, 1]]"), std::string::npos);

  // kSimOnly drops every name containing the "wall" token, counters and
  // gauges alike, and keeps everything else byte-identical material.
  const std::string sim = reg.to_json(telemetry::Snapshot::kSimOnly);
  EXPECT_NE(sim.find("test.json.sim_counter"), std::string::npos);
  EXPECT_EQ(sim.find("wall"), std::string::npos);
}

TEST(TelemetryRegistry, SimOnlyDropsWholeWallAndImplSegmentsOnly) {
  auto& reg = telemetry::registry();
  reg.reset();
  // "firewall" and "simple_q" contain "wall" and "impl" inside a segment
  // name; only a whole segment marks a host-dependent stat.
  reg.counter("graph.firewall.drops").add(1);
  reg.counter("graph.simple_q.frames_in").add(2);
  reg.counter("core.runner.span_ns.wall").add(3);
  reg.gauge("sim.engine.impl.slab_slots").set(4);

  const std::string sim = reg.to_json(telemetry::Snapshot::kSimOnly);
  EXPECT_NE(sim.find("\"graph.firewall.drops\": 1"), std::string::npos);
  EXPECT_NE(sim.find("\"graph.simple_q.frames_in\": 2"), std::string::npos);
  EXPECT_EQ(sim.find("core.runner.span_ns.wall"), std::string::npos);
  EXPECT_EQ(sim.find("sim.engine.impl.slab_slots"), std::string::npos);
}

TEST(TelemetryRegistry, ResetZeroesInPlace) {
  auto& reg = telemetry::registry();
  reg.reset();
  auto& c = reg.counter("test.reset.counter");
  c.add(99);
  reg.histogram("test.reset.hist").record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.histogram("test.reset.hist").snapshot().count(), 0u);
  // Addresses survive the reset.
  EXPECT_EQ(&reg.counter("test.reset.counter"), &c);
}

TEST(TelemetryRegistry, DisabledSkipsEngineFlush) {
  auto& reg = telemetry::registry();
  reg.reset();
  telemetry::set_enabled(false);
  {
    sim::Engine eng;
    eng.schedule_at(10, [] {});
    eng.run();
  }
  telemetry::set_enabled(true);
  EXPECT_EQ(reg.counter("sim.engine.events_fired").value(), 0u);
}

// ----------------------------------------------------------- engine flush

TEST(TelemetryEngine, FlushesCountersOnDestruction) {
  auto& reg = telemetry::registry();
  reg.reset();
  {
    sim::Engine eng;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(eng.schedule_at(static_cast<Picos>(i * 100), [] {}));
    }
    EXPECT_TRUE(eng.cancel(ids[3]));
    EXPECT_TRUE(eng.cancel(ids[7]));
    eng.run();
    EXPECT_EQ(eng.events_processed(), 8u);
    EXPECT_EQ(eng.events_cancelled(), 2u);
    EXPECT_GE(eng.live_high_water(), 10u);
    EXPECT_GE(eng.heap_high_water(), 10u);
    EXPECT_GE(eng.slab_slots(), 10u);
  }  // dtor merges the shard
  EXPECT_EQ(reg.counter("sim.engine.engines").value(), 1u);
  EXPECT_EQ(reg.counter("sim.engine.events_fired").value(), 8u);
  EXPECT_EQ(reg.counter("sim.engine.events_cancelled").value(), 2u);
  EXPECT_GE(reg.gauge("sim.engine.live_high_water").value(), 10);
  // Routing-dependent internals carry the "impl" marker so kSimOnly
  // snapshots stay byte-identical across timer-routing configs.
  EXPECT_GE(reg.gauge("sim.engine.impl.slab_slots").value(), 10);
  const std::string sim = reg.to_json(telemetry::Snapshot::kSimOnly);
  EXPECT_EQ(sim.find("slab_slots"), std::string::npos);
  EXPECT_EQ(sim.find("heap_high_water"), std::string::npos);
  EXPECT_NE(sim.find("live_high_water"), std::string::npos);
}

TEST(TelemetryEngine, HandlerTimingFlushesWallCounters) {
  auto& reg = telemetry::registry();
  reg.reset();
  {
    sim::Engine eng;
    eng.set_handler_timing(true);
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(static_cast<Picos>(i), [] {
        volatile int sink = 0;
        for (int j = 0; j < 100; ++j) sink = sink + j;
      });
    }
    eng.run();
  }
  // Wall-domain by construction, so the name carries the marker and the
  // sim-only snapshot drops it.
  EXPECT_GT(reg.counter("sim.engine.handler_ns.wall.generic").value(), 0u);
  const std::string sim = reg.to_json(telemetry::Snapshot::kSimOnly);
  EXPECT_EQ(sim.find("handler_ns"), std::string::npos);
}

TEST(TelemetryEngine, CategoryScopeTagsTraceTracks) {
  telemetry::TraceRecorder rec;
  sim::Engine eng;
  eng.set_trace(&rec);
  EXPECT_EQ(rec.track_count(), sim::kEventCategoryCount);
  eng.schedule_at(10, [] {});  // kGeneric
  {
    const sim::Engine::CategoryScope cat(eng, sim::EventCategory::kGen);
    eng.schedule_at(20, [] {});
  }
  {
    const sim::Engine::CategoryScope cat(eng, sim::EventCategory::kMon);
    eng.schedule_at(30, [] {});
  }
  eng.run();
  EXPECT_EQ(rec.size(), 3u);

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"engine/generic\""), std::string::npos);
  EXPECT_NE(json.find("\"engine/gen\""), std::string::npos);
  EXPECT_NE(json.find("\"engine/mon\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"gen\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"mon\""), std::string::npos);
}

// ---------------------------------------------------------------- tracing

TEST(TelemetryTrace, ChromeJsonFormat) {
  telemetry::TraceRecorder rec;
  const auto t0 = rec.track("alpha");
  const auto t1 = rec.track("beta");
  EXPECT_EQ(rec.track("alpha"), t0);  // dedup by name
  EXPECT_EQ(rec.track_count(), 2u);
  rec.complete(t0, "slice", 1'000'000, 500'000);  // 1 us + 0.5 us in picos
  rec.instant(t1, "mark", 2'000'000);
  EXPECT_EQ(rec.size(), 2u);

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string json = os.str();
  // Array shape with metadata first.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"alpha\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"beta\"}"), std::string::npos);
  // Sim picos render as microseconds with full precision.
  EXPECT_NE(json.find("\"ts\": 1.000000, \"dur\": 0.500000"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 2.000000, \"s\": \"t\""), std::string::npos);
}

TEST(TelemetryTrace, CapDropsAndCounts) {
  telemetry::TraceRecorder rec(/*max_events=*/4);
  const auto t = rec.track("t");
  for (int i = 0; i < 10; ++i) rec.complete(t, "e", i, 0);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.track_count(), 1u);  // tracks survive clear()
}

TEST(TelemetryTrace, IdenticalRecordingsRenderIdenticalBytes) {
  const auto render = [] {
    telemetry::TraceRecorder rec;
    const auto t = rec.track("x");
    rec.complete(t, "a", 123'456'789, 42);
    rec.instant(t, "b", 987'654'321);
    std::ostringstream os;
    rec.write_chrome_json(os);
    return os.str();
  };
  EXPECT_EQ(render(), render());
}

// -------------------------------------------- end-to-end pipeline metrics

core::TrialStats run_device_scenario() {
  sim::Engine eng;
  core::OsntDevice dev{eng};
  hw::connect(dev.port(0), dev.port(1));
  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(3.0);
  spec.frame_size = 256;
  spec.seed = 7;
  return core::run_capture_test(eng, dev, 0, 1, spec, kPicosPerMilli);
}

TEST(TelemetryPipelines, DeviceRunPopulatesAllFamilies) {
  auto& reg = telemetry::registry();
  reg.reset();
  const auto r = run_device_scenario();
  ASSERT_GT(r.tx_frames, 0u);

  // Pipeline shards flushed when the device's engines/pipelines died.
  EXPECT_EQ(reg.counter("gen.tx.frames_scheduled").value(), r.tx_frames);
  EXPECT_EQ(reg.counter("mon.rx.frames_seen").value(), r.rx_frames);
  EXPECT_EQ(reg.counter("hw.dma.records_delivered").value(), r.captured);
  EXPECT_GT(reg.counter("sim.engine.events_fired").value(), 0u);

  // The sim-latency histogram agrees with the measurement layer's count.
  const auto lat = reg.histogram("mon.rx.latency_ns").snapshot();
  EXPECT_GT(lat.count(), 0u);
  const auto bytes = reg.histogram("gen.tx.frame_bytes").snapshot();
  EXPECT_EQ(bytes.count(), r.tx_frames);
  EXPECT_EQ(bytes.min(), 256u);
  EXPECT_EQ(bytes.max(), 256u);
}

// ------------------------------------------------- runner merge determinism

std::string sim_snapshot_for_jobs(std::size_t jobs) {
  auto& reg = telemetry::registry();
  reg.reset();
  core::TrialPlan plan;
  plan.points.resize(4);
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    plan.points[i].seed = 10 + i;
    plan.points[i].load_fraction = 0.2 + 0.1 * static_cast<double>(i);
  }
  plan.run = [](const core::TrialPoint& p) {
    sim::Engine eng;
    core::OsntDevice dev{eng};
    hw::connect(dev.port(0), dev.port(1));
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::line_rate(p.load_fraction);
    spec.frame_size = 512;
    spec.seed = p.seed;
    return core::run_capture_test(eng, dev, 0, 1, spec, kPicosPerMilli / 2);
  };
  core::RunnerConfig cfg;
  cfg.jobs = jobs;
  for (const auto& r : core::Runner{cfg}.run_resilient(plan))
    EXPECT_TRUE(r.ok()) << r.error;
  return reg.to_json(telemetry::Snapshot::kSimOnly);
}

TEST(TelemetryRunner, SimSnapshotsByteIdenticalAcrossJobs) {
  // The acceptance property: counters, gauges, and histograms derived from
  // simulated time must render identical bytes for any worker count. Wall
  // metrics (which do vary) are excluded by name convention.
  const std::string serial = sim_snapshot_for_jobs(1);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_NE(serial.find("gen.tx.frames_scheduled"), std::string::npos);
  EXPECT_NE(serial.find("core.runner.trials"), std::string::npos);
  EXPECT_EQ(serial, sim_snapshot_for_jobs(4));
  EXPECT_EQ(serial, sim_snapshot_for_jobs(0));  // hardware_concurrency
}

TEST(TelemetryRunner, WallMetricsPresentInFullSnapshot) {
  (void)sim_snapshot_for_jobs(2);
  auto& reg = telemetry::registry();
  EXPECT_EQ(reg.counter("core.runner.plans").value(), 1u);
  EXPECT_EQ(reg.counter("core.runner.trials").value(), 4u);
  EXPECT_EQ(reg.gauge("core.runner.jobs.wall").value(), 2);
  EXPECT_GT(reg.counter("core.runner.busy_ns.wall").value(), 0u);
  EXPECT_GT(reg.counter("core.runner.span_ns.wall").value(), 0u);
  EXPECT_EQ(reg.histogram("core.runner.trial_us.wall").snapshot().count(), 4u);
  const std::string all = reg.to_json(telemetry::Snapshot::kAll);
  EXPECT_NE(all.find("core.runner.utilization_pct.wall"), std::string::npos);
}

// ------------------------------------------------------- time series

/// A minimal sampled scenario: a cumulative counter bumped by scheduled
/// events and a cumulative histogram fed alongside it, sampled every
/// 100 ps over a 300 ps horizon with one straggler event at 350 ps.
telemetry::SeriesData sampled_scenario(bool wheel) {
  sim::Engine eng;
  eng.set_wheel_enabled(wheel);
  std::uint64_t frames = 0;
  Log2Histogram lat;
  // Interval 1: two events. Interval 2: none. Interval 3: one. Tail: one.
  for (const Picos t : {30, 60, 250, 350}) {
    eng.schedule_at(t, [&frames, &lat, t] {
      ++frames;
      lat.record(static_cast<std::uint64_t>(t));
    });
  }
  telemetry::TimeSeries ts{100};
  ts.add_counter("frames", [&frames] { return frames; });
  ts.add_histogram("lat.ns", [&lat] { return lat; });
  ts.attach(eng, 300);
  eng.run();
  ts.finish();
  return ts.take();
}

TEST(TelemetrySeries, CounterAndHistogramDeltasPerInterval) {
  const telemetry::SeriesData d = sampled_scenario(true);
  EXPECT_EQ(d.interval, 100);
  EXPECT_EQ(d.trials, 1u);
  EXPECT_EQ(d.intervals(), 4u);
  EXPECT_EQ(d.tail, 50);  // run ended at 350, last full tick at 300

  const auto& frames = d.channels.at("frames");
  ASSERT_EQ(frames.kind, telemetry::SeriesData::Channel::Kind::kCounter);
  ASSERT_EQ(frames.deltas.size(), 4u);
  EXPECT_EQ(frames.deltas[0], 2u);  // events at 30, 60
  EXPECT_EQ(frames.deltas[1], 0u);  // quiet interval
  EXPECT_EQ(frames.deltas[2], 1u);  // event at 250
  EXPECT_EQ(frames.deltas[3], 1u);  // tail straggler at 350

  const auto& lat = d.channels.at("lat.ns");
  ASSERT_EQ(lat.kind, telemetry::SeriesData::Channel::Kind::kHistogram);
  ASSERT_EQ(lat.hist.size(), 4u);
  EXPECT_EQ(lat.hist[0].count, 2u);
  EXPECT_EQ(lat.hist[0].sum, 90u);
  EXPECT_EQ(lat.hist[1].count, 0u);
  EXPECT_EQ(lat.hist[2].count, 1u);
  EXPECT_EQ(lat.hist[3].sum, 350u);
}

TEST(TelemetrySeries, JsonShapeAndDeterminism) {
  const telemetry::SeriesData d = sampled_scenario(true);
  const std::string json = d.to_json();
  EXPECT_NE(json.find("\"osnt.series.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_ps\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"tail_ps\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"trials\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"intervals\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"channels\""), std::string::npos);
  EXPECT_NE(json.find("\"delta\": [2, 0, 1, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": [2, 0, 1, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Same scenario, same bytes.
  EXPECT_EQ(json, sampled_scenario(true).to_json());
}

TEST(TelemetrySeries, WheelAndHeapTimersProduceIdenticalSeries) {
  // The sampler's ticks ride the bulk-timer path; whether they land in the
  // timing wheel or spill to the heap must not change a single byte.
  EXPECT_EQ(sampled_scenario(true).to_json(),
            sampled_scenario(false).to_json());
}

TEST(TelemetrySeries, MergeIsCommutativeAndUnionsChannels) {
  const telemetry::SeriesData a = sampled_scenario(true);

  telemetry::SeriesData b = sampled_scenario(true);
  {
    // Give b a channel a doesn't have, and vice versa by construction.
    telemetry::SeriesData::Channel extra;
    extra.kind = telemetry::SeriesData::Channel::Kind::kCounter;
    extra.deltas = {5, 6};
    b.channels["only.in.b"] = extra;
  }

  telemetry::SeriesData ab = a;
  ab.merge_from(b);
  telemetry::SeriesData ba = b;
  ba.merge_from(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());

  EXPECT_EQ(ab.trials, 2u);
  EXPECT_EQ(ab.channels.at("frames").deltas[0], 4u);  // 2 + 2
  EXPECT_EQ(ab.channels.at("lat.ns").hist[3].sum, 700u);
  // A channel present on only one side survives the union untouched;
  // intervals() still reports the longest channel.
  ASSERT_EQ(ab.channels.at("only.in.b").deltas.size(), 2u);
  EXPECT_EQ(ab.channels.at("only.in.b").deltas[1], 6u);
  EXPECT_EQ(ab.intervals(), 4u);
}

TEST(TelemetrySeries, MergeIntoEmptyAdoptsIntervalAndTail) {
  telemetry::SeriesData empty;
  empty.merge_from(sampled_scenario(true));
  EXPECT_EQ(empty.interval, 100);
  EXPECT_EQ(empty.tail, 50);
  EXPECT_EQ(empty.trials, 1u);
  EXPECT_EQ(empty.to_json(), sampled_scenario(true).to_json());
}

}  // namespace
}  // namespace osnt
