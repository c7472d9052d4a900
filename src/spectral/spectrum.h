// One-shot spectrum analysis: the detector's full_spectrum() diagnostic,
// which Fig. 5 plots and scores with core::evaluate_band.
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
};

/// Computes the spectrum of `signal` (mean removed, periodic Hann
/// applied).  The signal length is preserved (Bluestein handles
/// non-power-of-two).
Spectrum analyze(const std::vector<double>& signal, double sample_rate_hz);

}  // namespace nimbus::spectral
