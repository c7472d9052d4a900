// TCP Vegas (Brakmo et al., SIGCOMM 1994): delay-based congestion control.
// One of the delay-control algorithms Nimbus can run (section 4.1), and a
// baseline in most of the paper's figures.
#pragma once

#include <cstdint>

#include "sim/cc_interface.h"
#include "util/time.h"

namespace nimbus::cc {

/// Vegas window arithmetic in packets.  Once per RTT, compare the expected
/// rate (cwnd/base_rtt) with the actual rate (cwnd/rtt); keep the surplus
/// queue occupancy diff = (expected - actual) * base_rtt within [alpha, beta]
/// packets.
class VegasCore {
 public:
  static constexpr double kAlpha = 2.0;
  static constexpr double kBeta = 4.0;
  static constexpr double kGamma = 1.0;  // slow-start exit threshold

  void init(double initial_cwnd_pkts);
  void on_ack(TimeNs now, TimeNs rtt, TimeNs base_rtt, double acked_pkts);
  void on_congestion_event();
  void on_rto();

  double cwnd_pkts() const { return cwnd_; }

 private:
  double cwnd_ = 10;
  bool slow_start_ = true;
  TimeNs next_update_ = 0;
  bool grow_this_rtt_ = true;  // slow start doubles every *other* RTT
};

class Vegas final : public sim::CcAlgorithm {
 public:
  std::string name() const override { return "vegas"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;

 private:
  VegasCore core_;
};

}  // namespace nimbus::cc
