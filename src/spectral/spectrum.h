// Spectrum analysis helpers shared by the elasticity detector and benches.
#pragma once

#include <cstddef>
#include <vector>

#include "spectral/window.h"

namespace nimbus::spectral {

/// A one-shot magnitude spectrum of a uniformly sampled real signal.
struct Spectrum {
  double sample_rate_hz = 0.0;
  std::vector<double> magnitude;  // bins 0..N/2, normalized by N

  std::size_t bins() const { return magnitude.size(); }
  double frequency(std::size_t k) const;

  /// Peak magnitude over bins with frequency strictly inside (f_lo, f_hi).
  /// Returns 0 if no bin falls in the range.
  double peak_in(double f_lo, double f_hi) const;

  /// Frequency of the largest non-DC bin.
  double dominant_frequency() const;
};

/// Computes the spectrum of `signal` (mean removed, periodic Hann
/// applied).  The signal length is preserved (Bluestein handles
/// non-power-of-two).
Spectrum analyze(const std::vector<double>& signal, double sample_rate_hz);

/// The paper's elasticity metric (Eq. 3) on an existing spectrum:
///   eta = |FFT(f_p)| / max_{f in (f_p, 2 f_p)} |FFT(f)|.
/// The numerator takes the maximum over bins within +-`tolerance_hz` of f_p
/// (the pulse is not phase-locked to the window, so energy can straddle two
/// bins).  Returns a large value if the comparison band is empty or zero.
double elasticity_eta(const Spectrum& spec, double f_pulse_hz,
                      double tolerance_hz = 0.4);

}  // namespace nimbus::spectral
