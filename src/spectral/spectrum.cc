#include "spectral/spectrum.h"

#include "spectral/fft.h"
#include "util/check.h"

namespace nimbus::spectral {

double Spectrum::frequency(std::size_t k) const {
  // magnitude holds N/2+1 bins of an N-point transform.
  const std::size_t n = (bins() - 1) * 2;
  return bin_frequency(k, n == 0 ? 1 : n, sample_rate_hz);
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

}  // namespace nimbus::spectral
