#include "spectral/spectrum.h"

#include <algorithm>
#include <cmath>

#include "spectral/fft.h"
#include "util/check.h"

namespace nimbus::spectral {

double Spectrum::frequency(std::size_t k) const {
  // magnitude holds N/2+1 bins of an N-point transform.
  const std::size_t n = (bins() - 1) * 2;
  return bin_frequency(k, n == 0 ? 1 : n, sample_rate_hz);
}

double Spectrum::peak_in(double f_lo, double f_hi) const {
  double best = 0.0;
  for (std::size_t k = 1; k < bins(); ++k) {
    const double f = frequency(k);
    if (f > f_lo && f < f_hi) best = std::max(best, magnitude[k]);
  }
  return best;
}

double Spectrum::dominant_frequency() const {
  std::size_t best = 1;
  for (std::size_t k = 2; k < bins(); ++k) {
    if (magnitude[k] > magnitude[best]) best = k;
  }
  return bins() > 1 ? frequency(best) : 0.0;
}

Spectrum analyze(const std::vector<double>& signal, double sample_rate_hz) {
  NIMBUS_CHECK(!signal.empty());
  std::vector<double> x = signal;
  remove_mean(x);
  apply_window(x);
  Spectrum spec;
  spec.sample_rate_hz = sample_rate_hz;
  spec.magnitude = magnitude_spectrum(x);
  return spec;
}

double elasticity_eta(const Spectrum& spec, double f_pulse_hz,
                      double tolerance_hz) {
  // Numerator: strongest bin within tolerance of the pulse frequency.
  double num = 0.0;
  for (std::size_t k = 1; k < spec.bins(); ++k) {
    const double f = spec.frequency(k);
    if (std::abs(f - f_pulse_hz) <= tolerance_hz) {
      num = std::max(num, spec.magnitude[k]);
    }
  }
  // Denominator: peak strictly inside (f_p + tol, 2 f_p), so the pulse's own
  // leakage does not count against itself.
  const double denom =
      spec.peak_in(f_pulse_hz + tolerance_hz, 2.0 * f_pulse_hz);
  if (denom <= 0.0) return num > 0.0 ? 1e9 : 0.0;
  return num / denom;
}

}  // namespace nimbus::spectral
