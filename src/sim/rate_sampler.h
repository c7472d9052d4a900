// Send/receive rate measurement over the last n acknowledged packets,
// exactly as the paper's Eq. (2):
//
//   S = n_bytes / (s_{i+n} - s_i),   R = n_bytes / (r_{i+n} - r_i)
//
// where s_k is the send time of packet k and r_k the arrival time of its
// ACK.  Both rates are measured over the *same* n packets — the property the
// cross-traffic estimator (Eq. 1) depends on.  n is one window's worth of
// packets (section 3.4: "our implementation measures S and R over one RTT").
//
// rates() is queried on every ACK (Nimbus and BBR both read it through
// CcContext::send_rate_bps/recv_rate_bps), so the implementation is a
// power-of-two ring indexed by the global ack count, and each sample
// carries the running total of acked bytes: n_bytes over any window is one
// subtraction of two exact integer prefix sums instead of the reference
// implementation's O(n) re-summation.  The ring doubles until the
// kMaxHistory (16384-sample) cap, after which on_ack overwrites the oldest
// slot — steady state touches no heap and rates() is O(1).  Results are
// bit-identical to the deque implementation it replaced, kept as the
// executable spec in tests/oracles/reference_rate_sampler.h.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"

namespace nimbus::sim {

class RateSampler {
 public:
  struct Rates {
    double send_bps = 0.0;
    double recv_bps = 0.0;
    bool valid = false;
  };

  /// Records one acknowledged packet.
  void on_ack(TimeNs sent_at, TimeNs acked_at, std::uint32_t bytes);

  /// Rates over the most recent `n_packets` acked packets (clamped to what
  /// is available; invalid until at least kMinPackets have been seen).
  Rates rates(std::size_t n_packets) const;

  /// Convenience: rates over roughly one window (cwnd_bytes / mss packets).
  Rates rates_over_window(double cwnd_bytes, std::uint32_t mss) const;

  std::size_t history_size() const {
    return next_ < kMaxHistory ? static_cast<std::size_t>(next_)
                               : kMaxHistory;
  }

  /// Heap bytes held by the ring (0 before the first ACK).
  std::size_t heap_bytes() const {
    return ring_.capacity() * sizeof(Sample);
  }

  /// Frees the ring (a retired flow's sampler); allocates nothing.  The
  /// sampler is back to its empty, pre-first-ACK state.
  void release();

 private:
  static constexpr std::size_t kMinPackets = 5;
  // History cap: the ring stops doubling here and on_ack overwrites the
  // oldest slot, so the steady state touches no heap.
  static constexpr std::size_t kMaxHistory = 16384;

  struct Sample {
    TimeNs sent_at;
    TimeNs acked_at;
    std::uint64_t cum_bytes;  // total acked bytes through this sample
  };

  void grow();

  std::vector<Sample> ring_;  // power-of-two size (or empty before first ack)
  std::uint64_t mask_ = 0;
  std::uint64_t next_ = 0;  // global index of the next sample
  std::uint64_t cum_bytes_ = 0;
};

}  // namespace nimbus::sim
