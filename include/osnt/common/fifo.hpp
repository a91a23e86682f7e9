// Fifo<T>: a growable power-of-two ring for trivially copyable records,
// offering only what tcp::Flow's two queues need: push at the back, pop
// at either end, peek at either end. It allocates nothing until its
// first push and keeps its buffer across clear(), so an idle owner costs
// 24 bytes and no heap, and a busy one reuses one buffer.
// std::deque is the obvious alternative, but libstdc++'s allocates a
// 64 B map and a 512 B block in its constructor even when it stays
// empty; for 10k tcp flows that costs more than the rest of their
// set-up and teardown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace osnt {

template <class T>
class Fifo {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_default_constructible_v<T>,
                "Fifo slots are overwritten in place and copied on growth");

 public:
  /// Slots the first push allocates; each growth doubles. Small, so an
  /// owner that queues little holds little.
  static constexpr std::uint32_t kFirstCapacity = 8;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  // front(), back() and both pops require !empty().
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] T& back() { return buf_[slot(size_ - 1)]; }

  /// By value: `v` may be a slot that growth frees.
  void push_back(T v) {
    if (size_ == cap_) grow();
    buf_[slot(size_)] = v;
    ++size_;
  }
  void pop_front() {
    head_ = slot(1);
    --size_;
  }
  void pop_back() { --size_; }
  /// Empties the queue and keeps the buffer.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::uint32_t slot(std::uint32_t i) const {
    return (head_ + i) & (cap_ - 1);
  }

  void grow() {
    const std::uint32_t cap = cap_ == 0 ? kFirstCapacity : 2 * cap_;
    auto buf = std::make_unique_for_overwrite<T[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i) buf[i] = buf_[slot(i)];
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t cap_ = 0;  ///< 0 or a power of two
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace osnt
