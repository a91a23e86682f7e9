// PCIe DMA engine model: the loss-limited path from the capture pipeline
// to the host. Finite effective bandwidth (shared by all ports) and a
// finite descriptor ring; when either is exhausted, records are dropped
// in hardware and counted — the wire is never back-pressured. This is the
// property that makes filtering and packet thinning matter.
#pragma once

#include <cstdint>
#include <functional>

#include "osnt/common/time.hpp"
#include "osnt/common/types.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/sim/lane.hpp"

namespace osnt::hw {

/// One completed DMA transfer. `meta_*` are descriptor words the producer
/// is free to use (the monitor stores timestamp / original length / port).
struct DmaRecord {
  Bytes payload;
  std::uint64_t meta_a = 0;
  std::uint64_t meta_b = 0;
  std::uint64_t meta_c = 0;
};

struct DmaConfig {
  /// Effective host throughput. PCIe Gen2 x8 nominal is 32 Gb/s but the
  /// achievable packet-rate-limited goodput of the NetFPGA-10G DMA core
  /// is far lower; default 8 Gb/s reproduces the "subset of captured
  /// packets" behaviour when all four ports are busy.
  double gbps = 8.0;
  std::size_t ring_entries = 1024;
  /// Fixed per-record cost (descriptor + completion), in bytes-equivalent
  /// on the bus; dominates for small snapped packets.
  std::size_t per_record_overhead_bytes = 64;
};

class DmaEngine {
 public:
  using Config = DmaConfig;
  using Handler = std::function<void(DmaRecord)>;

  DmaEngine(sim::Engine& eng, Config cfg = Config()) noexcept
      : eng_(&eng), cfg_(cfg) {}
  /// Merges delivery/drop counters into the telemetry registry (`hw.dma.*`).
  ~DmaEngine();

  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Ask for a ring slot before building a record, so a producer can skip
  /// the work for a record the ring would refuse. Returns false (and
  /// counts the drop) when the ring is full. After true, the next
  /// enqueue() in the same handler succeeds.
  [[nodiscard]] bool admit() noexcept;

  /// Try to enqueue a record at the current sim time. Returns false (and
  /// counts the drop) when the ring is full.
  bool enqueue(DmaRecord rec);

  /// Fault seam: freeze the bus for `duration` (host-ring stall, PCIe
  /// backpressure burst). Transfers already on the bus complete on
  /// schedule; everything enqueued afterwards queues behind the stall, so
  /// a busy capture path fills the ring and drops — exactly the paper's
  /// loss-limited behaviour under host pressure.
  void inject_stall(Picos duration);
  [[nodiscard]] std::uint64_t stalls_injected() const noexcept {
    return stalls_;
  }

  [[nodiscard]] std::size_t ring_occupancy() const noexcept { return in_ring_; }
  [[nodiscard]] std::uint64_t records_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return bytes_delivered_;
  }
  [[nodiscard]] std::uint64_t drops_ring_full() const noexcept {
    return drops_;
  }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  /// A record's transfer completes: it leaves the ring for the host.
  struct Complete {
    DmaEngine* dma;
    void operator()(DmaRecord&& rec) const;
  };

  sim::Engine* eng_;
  Config cfg_;
  Handler handler_;
  Picos bus_free_ = 0;    ///< when the bus finishes its current backlog
  std::size_t in_ring_ = 0;
  std::size_t ring_hw_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t stalls_ = 0;
  sim::FifoLane<DmaRecord, Complete> bus_{*eng_, Complete{this}};
};

}  // namespace osnt::hw
