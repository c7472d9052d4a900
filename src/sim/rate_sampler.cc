#include "sim/rate_sampler.h"

#include <algorithm>

namespace nimbus::sim {

void RateSampler::grow() {
  std::size_t cap = ring_.empty() ? 64 : ring_.size() * 2;
  std::vector<Sample> next(cap);
  const std::uint64_t nmask = cap - 1;
  // Live samples occupy global indices [next_ - size, next_).
  const std::uint64_t size = next_ < ring_.size() ? next_ : ring_.size();
  for (std::uint64_t i = next_ - size; i < next_; ++i) {
    next[i & nmask] = ring_[i & mask_];
  }
  ring_ = std::move(next);
  mask_ = nmask;
}

void RateSampler::release() {
  ring_ = std::vector<Sample>();
  mask_ = 0;
  next_ = 0;
  cum_bytes_ = 0;
}

// NIMBUS_HOT_PATH begin
void RateSampler::on_ack(TimeNs sent_at, TimeNs acked_at,
                         std::uint32_t bytes) {
  // detlint:allow(R5): doubling growth, capped at kMaxHistory slots
  if (next_ >= ring_.size() && ring_.size() < kMaxHistory) grow();
  cum_bytes_ += bytes;
  ring_[next_ & mask_] = {sent_at, acked_at, cum_bytes_};
  ++next_;
}

RateSampler::Rates RateSampler::rates(std::size_t n_packets) const {
  Rates out;
  n_packets = std::min(n_packets, history_size());
  if (n_packets < kMinPackets) return out;

  // Eq. (2): n_bytes spans the n-1 inter-packet gaps between the first and
  // last sample of the window, so it sums the bytes of packets after the
  // first — exactly the difference of the two running totals.
  const Sample& a = ring_[(next_ - n_packets) & mask_];
  const Sample& b = ring_[(next_ - 1) & mask_];
  const auto n_bytes = static_cast<std::int64_t>(b.cum_bytes - a.cum_bytes);
  const TimeNs send_span = b.sent_at - a.sent_at;
  const TimeNs recv_span = b.acked_at - a.acked_at;
  if (send_span <= 0 || recv_span <= 0 || n_bytes <= 0) return out;

  out.send_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(send_span);
  out.recv_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(recv_span);
  out.valid = true;
  return out;
}

RateSampler::Rates RateSampler::rates_over_window(double cwnd_bytes,
                                                  std::uint32_t mss) const {
  const auto window_pkts = static_cast<std::size_t>(
      std::max(8.0, cwnd_bytes / static_cast<double>(mss)));
  return rates(window_pkts);
}
// NIMBUS_HOT_PATH end

}  // namespace nimbus::sim
