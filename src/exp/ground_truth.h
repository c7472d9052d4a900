// Ground-truth elasticity intervals and mode-decision logging, used to
// score classification accuracy (Figs. 12, 14, 15, 25; App. E).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "cc/copa.h"
#include "core/nimbus.h"
#include "sim/network.h"
#include "util/time.h"
#include "util/timeseries.h"

namespace nimbus::exp {

/// Piecewise-constant ground truth: is elastic cross traffic present?
class GroundTruth {
 public:
  void add_interval(TimeNs t0, TimeNs t1, bool elastic);
  bool elastic_at(TimeNs t) const;
  bool empty() const { return intervals_.empty(); }

 private:
  struct Interval {
    TimeNs t0, t1;
    bool elastic;
  };
  std::vector<Interval> intervals_;
};

/// Time series of binary mode decisions (true = TCP-competitive).
class ModeLog {
 public:
  void add(TimeNs t, bool competitive) {
    series_.add(t, competitive ? 1.0 : 0.0);
  }

  /// Fraction of logged decisions in [t0, t1) matching the ground truth
  /// (elastic present <=> competitive mode is correct).
  double accuracy(const GroundTruth& truth, TimeNs t0, TimeNs t1) const;

  /// Fraction of decisions in [t0, t1) that are competitive.
  double fraction_competitive(TimeNs t0, TimeNs t1) const;

  const util::TimeSeries& series() const { return series_; }

 private:
  util::TimeSeries series_;
};

/// Wires a Nimbus instance's status stream into a ModeLog (and optionally
/// eta / z / raw-eta / base-rate logs).  eta_log records the smoothed
/// decision eta and eta_raw_log the latest single-window eta, both only
/// while the detector is ready; z_log records every cross-traffic estimate
/// and rate_log every base rate S(t).
void attach_nimbus_logger(core::Nimbus* nimbus, ModeLog* mode_log,
                          util::TimeSeries* eta_log = nullptr,
                          util::TimeSeries* z_log = nullptr,
                          util::TimeSeries* eta_raw_log = nullptr,
                          util::TimeSeries* rate_log = nullptr);

/// Polls a Copa instance's mode every 10 ms on the network's loop.
void attach_copa_poller(sim::Network* net, const cc::Copa* copa,
                        ModeLog* mode_log);

/// µ(t)-aware z-estimate scoring for time-varying-bottleneck experiments:
/// mean of |z(t) − z_true(t)| / µ(t) over the z-log samples in [t0, t1),
/// i.e. the cross-traffic estimation error normalized by the capacity in
/// effect when each sample was taken (a 10 Mbit/s error matters more on a
/// link that has dipped to 30 Mbit/s than at its 96 Mbit/s peak).
/// `true_z_bps` and `mu_bps` are evaluated at each sample's timestamp —
/// pass exp::make_link_schedule(spec)'s rate_at for µ.  Returns nullopt if
/// the window holds no samples.
std::optional<double> mean_z_error(
    const util::TimeSeries& z_log,
    const std::function<double(TimeNs)>& true_z_bps,
    const std::function<double(TimeNs)>& mu_bps, TimeNs t0, TimeNs t1);

}  // namespace nimbus::exp
