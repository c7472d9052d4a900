// Exponentially weighted moving average over irregularly spaced samples.
#pragma once

#include <cmath>

#include "util/time.h"

namespace nimbus::util {

/// Time-aware EWMA acting as a single-pole low-pass filter with time
/// constant tau: for a sample after elapsed dt, the effective alpha is
/// 1 - exp(-dt/tau).  The -3 dB cutoff frequency is 1/(2*pi*tau).
///
/// Nimbus watchers use this to remove frequencies at or above the pulsing
/// frequencies from their own send rate (section 6 of the paper).
class TimeEwma {
 public:
  explicit TimeEwma(double tau_sec) : tau_sec_(tau_sec) {}

  /// Cutoff-frequency constructor: tau = 1/(2*pi*fc).
  static TimeEwma with_cutoff_hz(double fc) {
    return TimeEwma(1.0 / (2.0 * M_PI * fc));
  }

  void add(TimeNs now, double x) {
    if (!initialized_) {
      value_ = x;
      last_ = now;
      initialized_ = true;
      return;
    }
    const double dt = to_sec(now - last_);
    last_ = now;
    if (dt <= 0) return;
    const double a = 1.0 - std::exp(-dt / tau_sec_);
    value_ = (1.0 - a) * value_ + a * x;
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  void reset() { initialized_ = false; }

 private:
  double tau_sec_;
  double value_ = 0.0;
  TimeNs last_ = 0;
  bool initialized_ = false;
};

}  // namespace nimbus::util
