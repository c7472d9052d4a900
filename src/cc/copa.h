// Copa (Arun & Balakrishnan, NSDI 2018).
//
// Copa targets a sending rate of 1/(delta * dq) where dq is the queueing
// delay estimate (rtt_standing - rtt_min).  The window moves toward the
// target by v/(delta*cwnd) per ACK, where the velocity v doubles each RTT
// the direction persists.
//
// Mode switching (the mechanism the paper compares against in Figs. 10, 14,
// 23, 24): Copa expects its own dynamics to nearly empty the queue once
// every 5 RTTs.  If the observed queueing delay fails to drop below 10% of
// its recent peak within 5 RTTs, Copa declares the cross traffic
// buffer-filling and switches delta to an AIMD-driven "competitive" value
// (1/delta += 1 per RTT without loss, halved on loss); otherwise it runs in
// the default mode with delta = 0.5.
//
// CopaCore exposes the default-mode arithmetic so Nimbus can use "Copa's
// default mode" as its delay-control algorithm (section 4.1).
#pragma once

#include <cstdint>
#include <deque>

#include "sim/cc_interface.h"
#include "util/time.h"
#include "util/windowed_filter.h"

namespace nimbus::cc {

/// Default-mode Copa window arithmetic (fixed delta).
class CopaCore {
 public:
  explicit CopaCore(double delta = 0.5);

  void init(double initial_cwnd_pkts);
  void on_ack(TimeNs now, TimeNs rtt, TimeNs min_rtt, double acked_pkts,
              TimeNs srtt);
  void on_rto();

  void set_delta(double delta) { delta_ = delta; }
  double delta() const { return delta_; }
  double cwnd_pkts() const { return cwnd_; }
  void set_cwnd_pkts(double cwnd);
  /// Latest queueing-delay estimate (rtt_standing - rtt_min) in seconds.
  double queueing_delay_sec() const { return dq_sec_; }

 private:
  double delta_;
  double cwnd_ = 10;
  util::WindowedMin rtt_standing_{from_ms(100)};

  // Velocity state.
  double velocity_ = 1.0;
  int direction_ = 0;          // +1 up, -1 down
  TimeNs last_velocity_update_ = 0;
  double cwnd_at_last_update_ = 0;
  double dq_sec_ = 0;
  bool slow_start_ = true;
};

/// Full Copa with default/competitive mode switching.
class Copa final : public sim::CcAlgorithm {
 public:
  static constexpr double kDefaultDelta = 0.5;
  /// Queue is "nearly empty" if dq < this fraction of the recent peak.
  static constexpr double kEmptyFraction = 0.1;
  /// Switch window: queue must nearly empty once per this many RTTs.
  static constexpr int kWindowRtts = 5;

  std::string name() const override { return "copa"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;

  bool in_competitive_mode() const { return competitive_; }

 private:
  void update_mode(sim::CcContext& ctx, TimeNs now, double dq_sec);

  CopaCore core_{kDefaultDelta};
  bool competitive_ = false;

  // Mode detection: sliding min/max of dq over the last kWindowRtts RTTs.
  util::WindowedMin dq_min_{from_ms(250)};
  util::WindowedMax dq_max_{from_ms(250)};

  // Competitive-mode AIMD on 1/delta.
  double inv_delta_ = 2.0;
  TimeNs last_delta_update_ = 0;
  bool loss_this_rtt_ = false;
};

}  // namespace nimbus::cc
