// Packet: the value type that flows through every pipeline. Carries the
// frame bytes (destination MAC through payload, *excluding* the 4-byte FCS,
// which the MAC models append/strip) plus simulation metadata.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "osnt/common/time.hpp"
#include "osnt/common/types.hpp"

namespace osnt::net {

/// Ethernet framing constants (10GBASE-R).
inline constexpr std::size_t kEthHeaderLen = 14;
inline constexpr std::size_t kEthFcsLen = 4;
inline constexpr std::size_t kEthMinFrame = 64;    ///< incl. FCS
inline constexpr std::size_t kEthMaxFrame = 1518;  ///< incl. FCS, untagged
inline constexpr std::size_t kEthPreambleLen = 8;  ///< preamble + SFD
inline constexpr std::size_t kEthIfgLen = 12;      ///< inter-frame gap
/// Per-frame overhead on the wire beyond the frame itself.
inline constexpr std::size_t kEthPerFrameOverhead = kEthPreambleLen + kEthIfgLen;

/// Copy-on-write frame bytes behind an 8-byte handle to one heap block,
/// which holds an atomic reference count, the length and the bytes.
/// - A copy shares the block, and const access never copies.
/// - The first mutable access (mut_span(), non-const data() or
///   operator[]) copies a shared block before it writes.
/// - A mutable pointer or span must not be held across a copy of its
///   FrameBuf: the copy shares the bytes the pointer then writes.
/// A unique frame costs one allocation, and a sole owner frees its block
/// without a locked instruction.
class FrameBuf {
 public:
  FrameBuf() noexcept = default;
  /// `n` zero bytes.
  explicit FrameBuf(std::size_t n) : blk_(allocate(n)) {
    std::memset(bytes_of(blk_), 0, n);
  }
  /// A copy of `bytes`.
  explicit FrameBuf(ByteSpan bytes) : blk_(allocate(bytes.size())) {
    if (!bytes.empty()) std::memcpy(bytes_of(blk_), bytes.data(), bytes.size());
  }
  FrameBuf(const FrameBuf& other) noexcept : blk_(other.blk_) {
    if (blk_ != nullptr) blk_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  FrameBuf(FrameBuf&& other) noexcept : blk_(std::exchange(other.blk_, nullptr)) {}
  FrameBuf& operator=(const FrameBuf& other) noexcept {
    return *this = FrameBuf(other);
  }
  FrameBuf& operator=(FrameBuf&& other) noexcept {
    if (this != &other) {
      release(blk_);
      blk_ = std::exchange(other.blk_, nullptr);
    }
    return *this;
  }
  ~FrameBuf() { release(blk_); }

  [[nodiscard]] std::size_t size() const noexcept {
    return blk_ != nullptr ? blk_->size : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return blk_ != nullptr ? bytes_of(blk_) : nullptr;
  }
  [[nodiscard]] std::uint8_t* data() {
    unshare();
    return blk_ != nullptr ? bytes_of(blk_) : nullptr;
  }
  [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] ByteSpan span() const noexcept { return {data(), size()}; }
  [[nodiscard]] MutByteSpan mut_span() {
    std::uint8_t* const p = data();
    return {p, size()};
  }
  /// True while another FrameBuf shares this one's block.
  [[nodiscard]] bool shared() const noexcept {
    return blk_ != nullptr && blk_->refs.load(std::memory_order_acquire) != 1;
  }

  friend bool operator==(const FrameBuf& a, const FrameBuf& b) noexcept {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

 private:
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
  };
  static_assert(sizeof(Block) == 8);

  [[nodiscard]] static std::uint8_t* bytes_of(Block* b) noexcept {
    return reinterpret_cast<std::uint8_t*>(b + 1);
  }
  /// A block of `n` bytes with one reference; throws std::length_error
  /// past 4 GiB.
  [[nodiscard, gnu::returns_nonnull]] static Block* allocate(std::size_t n);
  /// Drop one reference. A sole owner (an acquire load reads 1) frees
  /// the block without a locked decrement: no other handle exists to
  /// copy it, and every earlier release is already visible.
  static void release(Block* b) noexcept {
    if (b != nullptr && (b->refs.load(std::memory_order_acquire) == 1 ||
                         b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)) {
      ::operator delete(b);
    }
  }
  /// Give this handle a block of its own before a write.
  void unshare() {
    if (shared()) *this = FrameBuf(span());
  }

  Block* blk_ = nullptr;
};

struct Packet {
  FrameBuf data;  ///< frame bytes without FCS; a copy shares them

  // --- simulation metadata (ground truth; not visible to device logic) ---
  std::uint64_t id = 0;           ///< unique per generated packet
  std::uint32_t ingress_port = 0; ///< port index on the receiving device
  /// When the first bit left the source MAC; -1 until a source stamps it
  /// (a frame may leave at sim time 0).
  Picos tx_truth = -1;
  Picos rx_truth = 0;             ///< when the last bit arrived at the sink MAC
  bool fcs_bad = false;           ///< corrupted in flight (FCS mismatch)

  Packet() = default;
  explicit Packet(FrameBuf bytes) noexcept : data(std::move(bytes)) {}
  /// A frame holding a copy of `bytes`.
  explicit Packet(ByteSpan bytes) : data(bytes) {}

  [[nodiscard]] std::size_t size() const noexcept { return data.size(); }
  [[nodiscard]] bool empty() const noexcept { return data.empty(); }

  /// Frame length on the wire including FCS.
  [[nodiscard]] std::size_t wire_len() const noexcept {
    return data.size() + kEthFcsLen;
  }

  /// Bytes occupied on the medium including preamble/SFD and minimum IFG.
  [[nodiscard]] std::size_t line_len() const noexcept {
    return wire_len() + kEthPerFrameOverhead;
  }

  [[nodiscard]] ByteSpan bytes() const noexcept { return data.span(); }
  /// Writable bytes; copies them first when another Packet shares them.
  [[nodiscard]] MutByteSpan mut_bytes() { return data.mut_span(); }
};
static_assert(sizeof(Packet) <= 48);

/// One-line human-readable summary of a frame (for CLI tools/examples).
[[nodiscard]] std::string describe(const Packet& pkt);

/// Time for `bytes` to serialize at `gbps` (payload bytes only, no framing).
[[nodiscard]] constexpr Picos serialization_time(std::size_t bytes,
                                                 double gbps) noexcept {
  // bits / (Gb/s) = ns; work in picoseconds to stay integral at 10G.
  return static_cast<Picos>(static_cast<double>(bytes) * 8.0 * 1000.0 / gbps);
}

/// Theoretical max frames/sec at `gbps` for a given wire frame size.
[[nodiscard]] constexpr double max_frame_rate(std::size_t frame_len_with_fcs,
                                              double gbps) noexcept {
  const double bits_per_frame =
      static_cast<double>(frame_len_with_fcs + kEthPerFrameOverhead) * 8.0;
  return gbps * 1e9 / bits_per_frame;
}

}  // namespace osnt::net
