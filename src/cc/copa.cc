#include "cc/copa.h"

#include <algorithm>
#include <cmath>

namespace nimbus::cc {

CopaCore::CopaCore(double delta) : delta_(delta) {}

void CopaCore::init(double initial_cwnd_pkts) {
  cwnd_ = initial_cwnd_pkts;
  velocity_ = 1.0;
  direction_ = 0;
  slow_start_ = true;
}

void CopaCore::set_cwnd_pkts(double cwnd) {
  cwnd_ = std::max(cwnd, 2.0);
  velocity_ = 1.0;
  direction_ = 0;
}

void CopaCore::on_ack(TimeNs now, TimeNs rtt, TimeNs min_rtt,
                      double acked_pkts, TimeNs srtt) {
  if (rtt <= 0 || min_rtt <= 0) return;

  // rtt_standing: min RTT over the last srtt/2 (filters ACK compression).
  rtt_standing_.set_window(std::max<TimeNs>(srtt / 2, from_ms(1)));
  rtt_standing_.update(now, to_sec(rtt));
  const double standing_sec = rtt_standing_.get_unexpired();
  dq_sec_ = std::max(standing_sec - to_sec(min_rtt), 0.0);

  // Target rate lambda = 1/(delta*dq) pkts/sec; current lambda = cwnd/standing.
  const double dq = std::max(dq_sec_, 1e-5);  // 10 us floor avoids divide-by-0
  const double target_rate = 1.0 / (delta_ * dq);
  const double current_rate = cwnd_ / std::max(standing_sec, 1e-6);

  // Slow start: double per RTT until the target is crossed.
  if (slow_start_) {
    if (current_rate < target_rate) {
      cwnd_ += acked_pkts;
      return;
    }
    slow_start_ = false;
  }

  // Velocity doubles each RTT the window keeps moving one way.
  const int dir = current_rate < target_rate ? +1 : -1;
  if (last_velocity_update_ == 0 || now - last_velocity_update_ >= srtt) {
    if (direction_ == dir &&
        (dir > 0 ? cwnd_ > cwnd_at_last_update_
                 : cwnd_ < cwnd_at_last_update_)) {
      velocity_ = std::min(velocity_ * 2.0, 1e6);
    } else {
      velocity_ = 1.0;
    }
    direction_ = dir;
    cwnd_at_last_update_ = cwnd_;
    last_velocity_update_ = now;
  }

  const double step = velocity_ * acked_pkts / (delta_ * cwnd_);
  cwnd_ = std::max(2.0, cwnd_ + (dir > 0 ? step : -step));
}

void CopaCore::on_rto() {
  cwnd_ = 2.0;
  velocity_ = 1.0;
  direction_ = 0;
  slow_start_ = false;
}

void Copa::init(sim::CcContext& ctx) {
  core_.init(ctx.cwnd_bytes() / ctx.mss());
  competitive_ = false;
  inv_delta_ = 1.0 / kDefaultDelta;
  ctx.set_pacing_rate_bps(0);  // window-driven; see pacing note below
}

void Copa::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  const TimeNs window =
      static_cast<TimeNs>(kWindowRtts) * std::max(ctx.srtt(), from_ms(1));
  dq_min_.set_window(window);
  dq_max_.set_window(window);

  core_.on_ack(ack.now, ack.rtt, ctx.min_rtt(),
               static_cast<double>(ack.newly_acked_bytes) / ctx.mss(),
               ctx.srtt());
  const double dq = core_.queueing_delay_sec();
  dq_min_.update(ack.now, dq);
  dq_max_.update(ack.now, dq);

  update_mode(ctx, ack.now, dq);

  // Competitive mode: 1/delta grows by 1 per RTT without loss (AIMD).
  if (competitive_) {
    if (last_delta_update_ == 0 || ack.now - last_delta_update_ >= ctx.srtt()) {
      if (!loss_this_rtt_) inv_delta_ += 1.0;
      loss_this_rtt_ = false;
      last_delta_update_ = ack.now;
    }
    core_.set_delta(1.0 / std::max(inv_delta_, 2.0));
  } else {
    core_.set_delta(kDefaultDelta);
  }

  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
  // Copa paces at 2*cwnd/rtt_standing to smooth transmission.
  if (ctx.srtt() > 0) {
    const double pace =
        2.0 * core_.cwnd_pkts() * ctx.mss() * 8.0 / to_sec(ctx.srtt());
    ctx.set_pacing_rate_bps(pace);
  }
}

void Copa::update_mode(sim::CcContext& ctx, TimeNs now, double /*dq_sec*/) {
  // Need a full detection window of samples after startup.
  if (ctx.srtt() == 0 || now < static_cast<TimeNs>(kWindowRtts) * ctx.srtt()) {
    return;
  }
  const double mn = dq_min_.get_unexpired();
  const double mx = dq_max_.get_unexpired();
  // "Nearly empty": the queue dipped below empty_fraction of its recent
  // peak (with a small absolute floor) at least once within the window.
  const double threshold = std::max(kEmptyFraction * mx, 0.0005);
  const bool emptied = mn < threshold;
  const bool was_competitive = competitive_;
  competitive_ = !emptied;
  if (competitive_ && !was_competitive) {
    inv_delta_ = 1.0 / kDefaultDelta;
    loss_this_rtt_ = false;
    last_delta_update_ = now;
  }
}

void Copa::on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) {
  if (!loss.new_congestion_event) return;
  loss_this_rtt_ = true;
  if (competitive_) {
    inv_delta_ = std::max(inv_delta_ / 2.0, 2.0);
    core_.set_delta(1.0 / inv_delta_);
    // AIMD-style window cut so competitive mode tracks TCP losses.
    core_.set_cwnd_pkts(core_.cwnd_pkts() / 2.0);
    ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
  }
}

void Copa::on_rto(sim::CcContext& ctx) {
  core_.on_rto();
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * ctx.mss());
}

}  // namespace nimbus::cc
