// RingDeque<T>: a double-ended queue over a single power-of-two ring
// buffer.  Unlike std::deque (chunked block map; steady-state FIFO traffic
// allocates/frees a block every ~512 bytes of churn), a RingDeque performs
// no heap work after reaching its high-water capacity — the property the
// simulator's per-packet paths (bottleneck FIFO, retransmit queue, windowed
// filters, Nimbus rate history) rely on for the zero-allocation guarantee.
//
// Indexing is contiguous-logical: operator[](0) is the front.  Elements
// must be movable; growth relinearizes into a fresh power-of-two buffer.
// NIMBUS_HOT_PATH file
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace nimbus::util {

template <typename T>
class RingDeque {
  // pop_front/pop_back/clear only move indices — popped slots are not
  // destroyed or reset until overwritten, which would silently pin the
  // resources of a non-trivial element type.
  static_assert(std::is_trivially_destructible_v<T>,
                "RingDeque requires trivially destructible elements");

 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[(head_ + size_ - 1) & mask_]; }
  const T& back() const { return buf_[(head_ + size_ - 1) & mask_]; }
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  void push_back(T v) {
    // detlint:allow(R5): doubling growth stops at the high-water mark
    if (size_ == buf_.size()) grow(size_ + 1);
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    NIMBUS_CHECK(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void pop_back() {
    NIMBUS_CHECK(size_ > 0);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Frees the buffer (a retired owner's queue); allocates nothing.  The
  /// deque is empty with capacity() 0 afterwards.
  void release() {
    buf_ = std::vector<T>();
    mask_ = 0;
    head_ = 0;
    size_ = 0;
  }

  /// Pre-sizes the ring to at least `n` slots (rounded up to a power of
  /// two); never shrinks.
  void reserve(std::size_t n) {
    // detlint:allow(R5): presizing is how callers avoid steady-state growth
    if (n > buf_.size()) grow(n);
  }

 private:
  void grow(std::size_t min_capacity) {
    std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    while (cap < min_capacity) cap *= 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    mask_ = cap - 1;
    head_ = 0;
  }

  std::vector<T> buf_;  // power-of-two size (or empty)
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nimbus::util
