// Executable-spec oracle for sim::RateSampler (tests and bench_micro only;
// not part of the nimbus library).
//
// The deque implementation the prefix-sum ring replaced: every query
// re-sums the bytes of the last n samples, O(n) per ACK.  Tests assert the
// ring returns bit-identical Rates under randomized workloads, and
// bench_micro measures the re-summation the ring avoids.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/rate_sampler.h"
#include "util/time.h"

namespace nimbus::oracles {

class ReferenceRateSampler {
 public:
  void on_ack(TimeNs sent_at, TimeNs acked_at, std::uint32_t bytes);
  sim::RateSampler::Rates rates(std::size_t n_packets) const;
  sim::RateSampler::Rates rates_over_window(double cwnd_bytes,
                                            std::uint32_t mss) const;
  std::size_t history_size() const { return samples_.size(); }

 private:
  struct Sample {
    TimeNs sent_at;
    TimeNs acked_at;
    std::uint32_t bytes;
  };
  std::deque<Sample> samples_;
  static constexpr std::size_t kMaxHistory = 16384;
  static constexpr std::size_t kMinPackets = 5;
};

}  // namespace nimbus::oracles
