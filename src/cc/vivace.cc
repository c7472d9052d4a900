#include "cc/vivace.h"

#include <algorithm>
#include <cmath>

namespace nimbus::cc {

void Vivace::init(sim::CcContext& ctx) {
  rate_bps_ = kInitialRateBps;
  start_mi(ctx, ctx.now(), /*phase=*/0);
}

void Vivace::apply_rate(sim::CcContext& ctx, double probe_rate) {
  ctx.set_pacing_rate_bps(probe_rate);
  // Inflight cap: 2 * rate * srtt keeps the MI rate honest without making
  // the flow window-limited.
  const double rtt_sec = ctx.srtt() > 0 ? to_sec(ctx.srtt()) : 0.05;
  ctx.set_cwnd_bytes(
      std::max(2.0 * probe_rate / 8.0 * rtt_sec, 4.0 * ctx.mss()));
}

void Vivace::start_mi(sim::CcContext& ctx, TimeNs now, int phase) {
  phase_ = phase;
  const TimeNs mi_len = std::max<TimeNs>(ctx.srtt(), from_ms(10));
  MiStats fresh;
  fresh.start = now;
  fresh.end = now + mi_len;
  if (phase == 0) {
    high_ = fresh;
    apply_rate(ctx, rate_bps_ * (1.0 + kEpsilon));
  } else {
    low_ = fresh;
    apply_rate(ctx, rate_bps_ * (1.0 - kEpsilon));
  }
}

double Vivace::utility(const MiStats& mi) const {
  const double dur = to_sec(mi.end - mi.start);
  if (dur <= 0 || mi.acked_packets == 0) return 0.0;
  const double x_mbps =
      static_cast<double>(mi.acked_bytes) * 8.0 / dur / 1e6;
  double grad = 0.0;
  if (mi.rtt_samples >= 3) {
    const double n = mi.rtt_samples;
    const double denom = n * mi.sum_tt - mi.sum_t * mi.sum_t;
    if (denom > 1e-12) {
      grad = (n * mi.sum_tr - mi.sum_t * mi.sum_r) / denom;
    }
  }
  if (std::abs(grad) < kGradientDeadband) grad = 0.0;
  const double total =
      static_cast<double>(mi.acked_packets + mi.lost_packets);
  const double loss_rate =
      total > 0 ? static_cast<double>(mi.lost_packets) / total : 0.0;
  return std::pow(std::max(x_mbps, 1e-6), kExponent) -
         kB * x_mbps * std::max(grad, 0.0) - kC * x_mbps * loss_rate;
}

void Vivace::decide(sim::CcContext& ctx, TimeNs now) {
  const double u_high = utility(high_);
  const double u_low = utility(low_);
  const int dir = u_high >= u_low ? +1 : -1;

  if (dir == last_direction_) {
    amplifier_ = std::min(amplifier_ + 1, kMaxAmplifier);
  } else {
    amplifier_ = 1;
  }
  last_direction_ = dir;

  const double step = kEpsilon * static_cast<double>(amplifier_);
  rate_bps_ *= (1.0 + static_cast<double>(dir) * step);
  rate_bps_ = std::clamp(rate_bps_, kMinRateBps, kMaxRateBps);

  start_mi(ctx, now, /*phase=*/0);
}

void Vivace::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  // Attribute the ACK to the monitor interval its packet was *sent* in:
  // ACKs received during an MI describe packets from ~one RTT earlier, so
  // receive-time attribution would systematically swap the two probes'
  // measurements and invert every gradient decision.
  const TimeNs send_time = ack.now - ack.rtt;
  auto accumulate = [&](MiStats& mi) {
    ++mi.acked_packets;
    mi.acked_bytes += ack.newly_acked_bytes;
    const double t = to_sec(send_time - mi.start);
    const double r = to_sec(ack.rtt);
    mi.sum_t += t;
    mi.sum_r += r;
    mi.sum_tt += t * t;
    mi.sum_tr += t * r;
    ++mi.rtt_samples;
  };
  if (send_time >= high_.start && send_time < high_.end) {
    accumulate(high_);
  } else if (phase_ >= 1 && send_time >= low_.start &&
             send_time < low_.end) {
    accumulate(low_);
  }

  if (phase_ == 0 && ack.now >= high_.end) {
    start_mi(ctx, ack.now, /*phase=*/1);
    return;
  }
  if (phase_ == 1 && ack.now >= low_.end) {
    phase_ = 2;  // drain: keep the low rate until the low MI's ACKs return
    return;
  }
  if (phase_ == 2 &&
      (send_time >= low_.end || ack.now >= low_.end + from_ms(500))) {
    decide(ctx, ack.now);
  }
}

void Vivace::on_loss(sim::CcContext& /*ctx*/, const sim::LossInfo& /*loss*/) {
  // Attribute losses to the probe currently being sent.
  if (phase_ == 0) {
    ++high_.lost_packets;
  } else {
    ++low_.lost_packets;
  }
}

void Vivace::on_rto(sim::CcContext& ctx) {
  rate_bps_ = std::max(rate_bps_ / 2.0, kMinRateBps);
  start_mi(ctx, ctx.now(), /*phase=*/0);
}

}  // namespace nimbus::cc
