#include "oracles/reference_rate_sampler.h"

#include <algorithm>

namespace nimbus::oracles {

void ReferenceRateSampler::on_ack(TimeNs sent_at, TimeNs acked_at,
                                  std::uint32_t bytes) {
  samples_.push_back({sent_at, acked_at, bytes});
  if (samples_.size() > kMaxHistory) samples_.pop_front();
}

sim::RateSampler::Rates ReferenceRateSampler::rates(
    std::size_t n_packets) const {
  sim::RateSampler::Rates out;
  n_packets = std::min(n_packets, samples_.size());
  if (n_packets < kMinPackets) return out;

  const std::size_t first = samples_.size() - n_packets;
  const Sample& a = samples_[first];
  const Sample& b = samples_.back();

  std::int64_t n_bytes = 0;
  for (std::size_t i = first + 1; i < samples_.size(); ++i) {
    n_bytes += samples_[i].bytes;
  }
  const TimeNs send_span = b.sent_at - a.sent_at;
  const TimeNs recv_span = b.acked_at - a.acked_at;
  if (send_span <= 0 || recv_span <= 0 || n_bytes <= 0) return out;

  out.send_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(send_span);
  out.recv_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(recv_span);
  out.valid = true;
  return out;
}

sim::RateSampler::Rates ReferenceRateSampler::rates_over_window(
    double cwnd_bytes, std::uint32_t mss) const {
  const auto window_pkts = static_cast<std::size_t>(
      std::max(8.0, cwnd_bytes / static_cast<double>(mss)));
  return rates(window_pkts);
}

}  // namespace nimbus::oracles
