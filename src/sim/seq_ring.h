// Sequence-indexed data structures for the per-ACK transport hot path.
//
// Transport sequence numbers are dense and monotonic, and the set of
// in-flight sequences lives in a sliding window bounded by the congestion
// window.  That makes node-based containers (std::map / std::set — one
// heap cell and a pointer chase per packet) the wrong shape: both
// structures below are power-of-two rings addressed by `seq & mask`, so
// find/insert/erase are O(1) array operations and the steady-state ACK
// path performs no heap allocation.  Rings grow on demand (doubling and
// re-placing the live window) when a sender's window outruns the current
// capacity, so growth cost amortizes to nothing.
//
//   * SeqRing<T>   — sliding-window map seq -> T (the sender's outstanding
//     packet tracking; replaces std::map<uint64_t, SentRecord>).
//   * SeqScoreboard — sliding-window bitset of received-out-of-order
//     sequences (the receiver's SACK scoreboard; replaces
//     std::set<uint64_t>).
// NIMBUS_HOT_PATH file
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace nimbus::sim {

/// Sliding-window map from a dense, window-bounded set of sequence numbers
/// to T.  Occupied sequences always lie in [lowest(), upper()) and that
/// span never exceeds capacity(), so `seq & mask` is collision-free.
template <typename T>
class SeqRing {
 public:
  explicit SeqRing(std::size_t initial_capacity = 64) {
    std::size_t cap = 1;
    while (cap < initial_capacity) cap *= 2;
    // detlint:allow(R5): construction-time presize, not steady-state growth
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }
  std::size_t heap_bytes() const { return slots_.capacity() * sizeof(Slot); }

  T* find(std::uint64_t seq) {
    Slot& s = slots_[seq & mask_];
    return s.occupied && s.seq == seq ? &s.value : nullptr;
  }

  /// Inserts `seq` (must not be present).
  void insert(std::uint64_t seq, T value) {
    std::uint64_t nlo = count_ == 0 ? seq : (seq < lo_ ? seq : lo_);
    std::uint64_t nhi = count_ == 0 ? seq + 1 : (seq + 1 > hi_ ? seq + 1 : hi_);
    // detlint:allow(R5): doubling growth, amortized away once the window
    if (nhi - nlo > slots_.size()) grow(nhi - nlo);
    Slot& s = slots_[seq & mask_];
    NIMBUS_CHECK_MSG(!s.occupied, "SeqRing double insert");
    s.occupied = true;
    s.seq = seq;
    s.value = std::move(value);
    lo_ = nlo;
    hi_ = nhi;
    ++count_;
  }

  /// Erases `seq` if present; returns whether it was.
  bool erase(std::uint64_t seq) {
    Slot& s = slots_[seq & mask_];
    if (!s.occupied || s.seq != seq) return false;
    s.occupied = false;
    --count_;
    if (count_ == 0) {
      lo_ = hi_ = 0;
      return true;
    }
    // Keep [lo_, hi_) tight so growth only triggers when the live window
    // really exceeds capacity.  Both walks amortize against insertions
    // (each bound moves past a given sequence at most once per insert).
    if (seq == lo_) {
      while (!slots_[lo_ & mask_].occupied) ++lo_;
    }
    if (seq + 1 == hi_) {
      while (!slots_[(hi_ - 1) & mask_].occupied) --hi_;
    }
    return true;
  }

  /// Smallest occupied sequence (requires !empty()).
  std::uint64_t lowest() const {
    NIMBUS_CHECK(count_ > 0);
    return lo_;
  }

  /// One past the largest occupied sequence (0 when empty).
  std::uint64_t upper() const { return hi_; }

  /// Calls f(seq, value&) for every occupied seq in [from, to), ascending.
  /// f may erase the sequence it was called with (but no other).
  template <typename F>
  void for_each_in(std::uint64_t from, std::uint64_t to, F&& f) {
    if (count_ == 0) return;
    std::uint64_t s = from > lo_ ? from : lo_;
    const std::uint64_t end = to < hi_ ? to : hi_;
    for (; s < end; ++s) {
      Slot& slot = slots_[s & mask_];
      if (slot.occupied && slot.seq == s) f(s, slot.value);
    }
  }

  void clear() {
    if (count_ > 0) {
      for (std::uint64_t s = lo_; s < hi_; ++s) {
        slots_[s & mask_].occupied = false;
      }
    }
    lo_ = hi_ = 0;
    count_ = 0;
  }

  /// Frees the slot array for good (a retired flow's ring); allocates
  /// nothing.  No use after release: only the size and capacity queries
  /// and upper() stay valid, and an insert CHECK-fails.
  void release() {
    slots_ = std::vector<Slot>();
    mask_ = 0;
    lo_ = hi_ = 0;
    count_ = 0;
  }

 private:
  struct Slot {
    T value{};
    std::uint64_t seq = 0;
    bool occupied = false;
  };

  void grow(std::uint64_t min_span) {
    NIMBUS_CHECK_MSG(!slots_.empty(), "SeqRing used after release");
    std::size_t cap = slots_.size() * 2;
    while (cap < min_span) cap *= 2;
    std::vector<Slot> next(cap);
    const std::uint64_t nmask = cap - 1;
    for (std::uint64_t s = lo_; s < hi_; ++s) {
      Slot& old = slots_[s & mask_];
      if (old.occupied && old.seq == s) next[s & nmask] = std::move(old);
    }
    slots_ = std::move(next);
    mask_ = nmask;
  }

  std::vector<Slot> slots_;  // power-of-two size
  std::uint64_t mask_;
  std::uint64_t lo_ = 0;  // smallest occupied seq (when count_ > 0)
  std::uint64_t hi_ = 0;  // one past the largest occupied seq
  std::size_t count_ = 0;
};

/// Sliding-window bitset of sequence numbers, for the receiver's SACK
/// scoreboard: sequences received above the cumulative point.  All set
/// bits lie in [base, base + capacity_bits); the caller advances `base`
/// (rcv_next) monotonically and clears bits as the cumulative point
/// consumes them.
class SeqScoreboard {
 public:
  explicit SeqScoreboard(std::size_t initial_bits = 1024) {
    std::size_t bits = 64;
    while (bits < initial_bits) bits *= 2;
    // detlint:allow(R5): construction-time presize, not steady-state growth
    words_.resize(bits / 64, 0);
    bitmask_ = bits - 1;
  }

  std::size_t count() const { return count_; }
  std::size_t capacity_bits() const { return words_.size() * 64; }

  bool test(std::uint64_t seq) const {
    const std::uint64_t b = seq & bitmask_;
    return (words_[b >> 6] >> (b & 63)) & 1;
  }

  /// Marks `seq` (idempotent).  `seq - base` must be < capacity_bits();
  /// call ensure_span(base, seq) first.
  void set(std::uint64_t seq) {
    const std::uint64_t b = seq & bitmask_;
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    if ((words_[b >> 6] & bit) == 0) {
      words_[b >> 6] |= bit;
      ++count_;
    }
  }

  void clear(std::uint64_t seq) {
    const std::uint64_t b = seq & bitmask_;
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    if ((words_[b >> 6] & bit) != 0) {
      words_[b >> 6] &= ~bit;
      --count_;
    }
  }

  /// Grows the bitset until `seq` fits in the window starting at `base`
  /// (the current cumulative point).  Set bits — all in
  /// (base, base + old_capacity) — are re-placed for the new mask.
  void ensure_span(std::uint64_t base, std::uint64_t seq) {
    if (seq - base < capacity_bits()) return;
    const std::size_t old_bits = capacity_bits();
    NIMBUS_CHECK_MSG(old_bits > 0, "SeqScoreboard used after release");
    std::size_t bits = old_bits * 2;
    while (seq - base >= bits) bits *= 2;
    std::vector<std::uint64_t> next(bits / 64, 0);
    const std::uint64_t nmask = bits - 1;
    std::size_t moved = 0;
    for (std::uint64_t s = base + 1; moved < count_ && s < base + old_bits;
         ++s) {
      if (test(s)) {
        const std::uint64_t b = s & nmask;
        next[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++moved;
      }
    }
    NIMBUS_CHECK_MSG(moved == count_, "SeqScoreboard lost bits in growth");
    words_ = std::move(next);
    bitmask_ = nmask;
  }

  /// Frees the bit words for good (a retired flow's scoreboard); allocates
  /// nothing.  No use after release: only count() (0) and capacity_bits()
  /// (0) stay valid, and ensure_span CHECK-fails.
  void release() {
    words_ = std::vector<std::uint64_t>();
    bitmask_ = 0;
    count_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;  // power-of-two bit count
  std::uint64_t bitmask_;
  std::size_t count_ = 0;
};

}  // namespace nimbus::sim
