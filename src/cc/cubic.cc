#include "cc/cubic.h"

#include <algorithm>
#include <cmath>

namespace nimbus::cc {

void CubicCore::init(double initial_cwnd_pkts) {
  cwnd_ = initial_cwnd_pkts;
  ssthresh_ = 1e9;
  w_max_ = 0;
  epoch_start_ = -1;
}

void CubicCore::set_cwnd_pkts(double cwnd) {
  cwnd_ = std::max(cwnd, 2.0);
  ssthresh_ = std::min(ssthresh_, cwnd_);
  epoch_start_ = -1;  // restart the cubic epoch from the new window
  w_max_ = std::max(w_max_, cwnd_);
}

double CubicCore::cubic_window(double t_sec) const {
  const double dt = t_sec - k_;
  return kC * dt * dt * dt + w_max_;
}

void CubicCore::on_ack(TimeNs now, TimeNs srtt, double acked_pkts) {
  if (in_slow_start()) {
    cwnd_ += acked_pkts;
    return;
  }
  if (epoch_start_ < 0) {
    epoch_start_ = now;
    ack_count_ = 0;
    if (cwnd_ < w_max_) {
      k_ = std::cbrt((w_max_ - cwnd_) / kC);
    } else {
      k_ = 0;
      w_max_ = cwnd_;
    }
    w_est_ = cwnd_;
  }
  ack_count_ += acked_pkts;

  const double t = to_sec(now - epoch_start_);
  const double rtt_sec = std::max(to_sec(srtt), 1e-4);
  const double target = cubic_window(t + rtt_sec);

  // RFC 8312 section 4.3: approach the target over one RTT.
  double increment;
  if (target > cwnd_) {
    increment = (target - cwnd_) / cwnd_;
  } else {
    increment = 0.01 / cwnd_;  // minimal growth when at/above target
  }

  // TCP-friendly region: average Reno increase rate, 3(1-beta)/(1+beta)
  // packets per RTT.
  const double reno_rate = 3.0 * (1.0 - kBeta) / (1.0 + kBeta);
  w_est_ += reno_rate * acked_pkts / cwnd_;
  if (w_est_ > cwnd_ + increment * acked_pkts) {
    cwnd_ = w_est_;
    return;
  }
  cwnd_ += increment * acked_pkts;
}

void CubicCore::on_congestion_event(TimeNs /*now*/) {
  epoch_start_ = -1;
  if (cwnd_ < w_max_) {  // fast convergence
    w_max_ = cwnd_ * (2.0 - kBeta) / 2.0;
  } else {
    w_max_ = cwnd_;
  }
  cwnd_ = std::max(cwnd_ * kBeta, 2.0);
  ssthresh_ = cwnd_;
}

void CubicCore::on_rto() {
  epoch_start_ = -1;
  w_max_ = cwnd_;
  ssthresh_ = std::max(cwnd_ * kBeta, 2.0);
  cwnd_ = 1.0;
}

void Cubic::init(sim::CcContext& ctx) {
  core_.init(ctx.cwnd_bytes() / ctx.mss());
  ctx.set_pacing_rate_bps(0);  // ACK-clocked
}

void Cubic::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  core_.on_ack(ack.now, ctx.srtt(),
               static_cast<double>(ack.newly_acked_bytes) / ctx.mss());
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

void Cubic::on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) {
  if (!loss.new_congestion_event) return;
  core_.on_congestion_event(loss.now);
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

void Cubic::on_rto(sim::CcContext& ctx) {
  core_.on_rto();
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

}  // namespace nimbus::cc
