#include "cc/vegas.h"

#include <algorithm>

namespace nimbus::cc {

void VegasCore::init(double initial_cwnd_pkts) {
  cwnd_ = initial_cwnd_pkts;
  slow_start_ = true;
  next_update_ = 0;
  grow_this_rtt_ = true;
}

void VegasCore::on_ack(TimeNs now, TimeNs rtt, TimeNs base_rtt,
                       double acked_pkts) {
  if (rtt <= 0 || base_rtt <= 0) return;

  // Estimate of packets this flow itself has queued at the bottleneck.
  const double rtt_s = to_sec(rtt);
  const double base_s = to_sec(base_rtt);
  const double diff = cwnd_ * (rtt_s - base_s) / rtt_s;

  if (slow_start_) {
    if (diff > kGamma) {
      slow_start_ = false;
      cwnd_ = std::max(cwnd_ - diff, 2.0);  // back off the surplus
    } else if (grow_this_rtt_) {
      cwnd_ += acked_pkts;  // double every other RTT
    }
  }

  if (now < next_update_) return;
  next_update_ = now + rtt;
  grow_this_rtt_ = !grow_this_rtt_;
  if (slow_start_) return;

  if (diff < kAlpha) {
    cwnd_ += 1.0;
  } else if (diff > kBeta) {
    cwnd_ -= 1.0;
  }
  cwnd_ = std::max(cwnd_, 2.0);
}

void VegasCore::on_congestion_event() {
  cwnd_ = std::max(cwnd_ / 2.0, 2.0);
  slow_start_ = false;
}

void VegasCore::on_rto() {
  cwnd_ = 2.0;
  slow_start_ = false;
}

void Vegas::init(sim::CcContext& ctx) {
  core_.init(ctx.cwnd_bytes() / ctx.mss());
  ctx.set_pacing_rate_bps(0);
}

void Vegas::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  core_.on_ack(ack.now, ack.rtt, ctx.min_rtt(),
               static_cast<double>(ack.newly_acked_bytes) / ctx.mss());
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

void Vegas::on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) {
  if (!loss.new_congestion_event) return;
  core_.on_congestion_event();
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

void Vegas::on_rto(sim::CcContext& ctx) {
  core_.on_rto();
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

}  // namespace nimbus::cc
