#include "core/basic_delay.h"

#include <algorithm>

namespace nimbus::core {

void BasicDelayCore::init(double initial_rate_bps) {
  rate_bps_ = std::max(initial_rate_bps, kMinRateBps);
}

double BasicDelayCore::update(double send_rate_bps, double cross_rate_bps,
                              double mu_bps, TimeNs rtt, TimeNs min_rtt) {
  if (mu_bps <= 0 || rtt <= 0 || min_rtt <= 0) return rate_bps_;
  const double spare = mu_bps - send_rate_bps - cross_rate_bps;
  const double x = to_sec(rtt);
  const double delay_err = to_sec(min_rtt) + to_sec(kTargetDelay) - x;
  double rate = send_rate_bps + kAlpha * spare +
                kBeta * (mu_bps / x) * delay_err;
  // Allow transient overshoot above mu: the beta term must be able to
  // *build* the standing queue toward d_t (a hard clamp at mu would pin
  // the queue empty and starve the z estimator of a busy bottleneck).
  rate = std::clamp(rate, kMinRateBps, 1.25 * mu_bps);
  rate_bps_ = rate;
  return rate_bps_;
}

BasicDelayCc::BasicDelayCc() : BasicDelayCc(Config()) {}

BasicDelayCc::BasicDelayCc(const Config& config)
    : cfg_(config) {}

void BasicDelayCc::init(sim::CcContext& ctx) {
  // Start around IW/RTT-equivalent pacing; the alpha term ramps quickly.
  core_.init(2e6);
  ctx.set_pacing_rate_bps(core_.rate_bps());
  ctx.set_cwnd_bytes(10.0 * ctx.mss());
}

void BasicDelayCc::on_ack(sim::CcContext& /*ctx*/, const sim::AckInfo&) {}

void BasicDelayCc::on_report(sim::CcContext& ctx,
                             const sim::CcReport& report) {
  if (!report.rates_valid || report.min_rtt <= 0) return;
  double mu = cfg_.known_mu_bps;
  if (mu <= 0) {
    mu_est_.on_receive_rate(report.now, report.recv_rate_bps);
    mu = mu_est_.mu_bps();
    if (mu <= 0) return;
  }
  last_z_ = estimate_cross_rate(mu, report.send_rate_bps,
                                report.recv_rate_bps);
  const double rate = core_.update(report.send_rate_bps, last_z_, mu,
                                   report.latest_rtt, report.min_rtt);
  ctx.set_pacing_rate_bps(rate);
  // Generous window: pacing governs the rate; the window only bounds the
  // inflight data if ACKs stall.
  const double rtt_sec = std::max(to_sec(report.srtt), 1e-3);
  ctx.set_cwnd_bytes(std::max(2.0 * rate / 8.0 * rtt_sec, 4.0 * ctx.mss()));
}

}  // namespace nimbus::core
