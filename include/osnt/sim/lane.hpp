// FIFO lane: a stream of future-dated events, one per item, that a single
// producer pushes in firing order — frames in flight on one link, frames
// queued behind one serializer, records on one DMA bus. The engine's heap
// holds only the lane's head; the rest wait in a chunked FIFO with the
// exact {time, seq, category} keys a schedule_at made at push time would
// have taken (Engine::reserve). Heap depth is therefore about one entry per
// busy lane instead of one per item in flight, while every item still
// fires as its own event at the same (time, seq) — events_fired,
// live_high_water and traces do not change (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "osnt/common/time.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::sim {

/// `fire(T&&)` runs for each pushed item at its time. The lane's address is
/// held by its pending head event, so it is neither copyable nor movable,
/// and it must outlive the simulation run that fires its items.
template <typename T, typename Fire>
class FifoLane {
  // A push counts its event live before the item moves into the FIFO.
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  /// Allocation-free: the first chunk is taken on the first push.
  FifoLane(Engine& eng, Fire fire) noexcept
      : eng_(&eng), fire_(std::move(fire)) {}
  FifoLane(const FifoLane&) = delete;
  FifoLane& operator=(const FifoLane&) = delete;

  /// Frees items still pending without firing them; never touches the
  /// engine, which may already be gone.
  ~FifoLane() {
    while (size_ != 0) pop_front_();
    delete head_;
    while (spare_ != nullptr) delete std::exchange(spare_, spare_->next);
  }

  /// Fire `item` at `t` (clamped to now) exactly as
  /// `schedule_at(t, [..] { fire(item); })` would, under the caller's
  /// EventCategory. A push that sorts before the lane's tail (the producer
  /// lowered a delay mid-flight) cannot join the FIFO and becomes that
  /// plain schedule_at.
  void push(Picos t, T item) {
    const Picos now = eng_->now();
    if (t < now) t = now;
    if (size_ != 0 && t < tail_time_) {
      eng_->schedule_at(t, [this, item = std::move(item)]() mutable {
        fire_(std::move(item));
      });
      return;
    }
    if (tail_ == nullptr) {
      head_ = tail_ = take_chunk_();
    } else if (tail_idx_ == kChunkEntries) {
      tail_ = tail_->next = take_chunk_();
      tail_idx_ = 0;
    }
    const Engine::Reservation key = eng_->reserve();
    ::new (static_cast<void*>(&tail_->slots[tail_idx_].e))
        Entry{t, key, std::move(item)};
    ++tail_idx_;
    tail_time_ = t;
    if (size_++ == 0) arm_(t, key);
  }

 private:
  static constexpr std::size_t kChunkEntries = 64;

  struct Entry {
    Picos time;
    Engine::Reservation key;
    T item;
  };
  /// Uninitialised storage: entries are constructed on push only.
  union Slot {
    Slot() noexcept {}
    ~Slot() {}
    Entry e;
  };
  struct Chunk {
    Chunk* next = nullptr;
    Slot slots[kChunkEntries];
  };

  Chunk* take_chunk_() {
    if (spare_ == nullptr) return new Chunk;
    Chunk* c = std::exchange(spare_, spare_->next);
    c->next = nullptr;
    return c;
  }

  void arm_(Picos t, Engine::Reservation key) {
    eng_->schedule_reserved(t, key, [this] { fire_head_(); });
  }

  /// The head's event: unlink the item, arm its successor — so pushes made
  /// by the handler see a consistent lane — then run the handler.
  void fire_head_() {
    T item(std::move(head_->slots[head_idx_].e.item));
    pop_front_();
    if (size_ != 0) {
      const Entry& next = head_->slots[head_idx_].e;
      arm_(next.time, next.key);
    }
    fire_(std::move(item));
  }

  void pop_front_() noexcept {
    std::destroy_at(&head_->slots[head_idx_].e);
    if (--size_ == 0) {
      // The only chunk in use stays resident: a lane that drains to empty
      // on every item never touches the spare list.
      head_idx_ = tail_idx_ = 0;
      return;
    }
    if (++head_idx_ == kChunkEntries) {
      Chunk* done = std::exchange(head_, head_->next);
      done->next = spare_;
      spare_ = done;
      head_idx_ = 0;
    }
  }

  Engine* eng_;
  Fire fire_;
  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  Chunk* spare_ = nullptr;
  std::size_t head_idx_ = 0;
  std::size_t tail_idx_ = 0;
  std::size_t size_ = 0;
  Picos tail_time_ = 0;
};

}  // namespace osnt::sim
