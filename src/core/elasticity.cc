#include "core/elasticity.h"

#include <vector>

#include "util/check.h"

namespace nimbus::core {

namespace {

/// The bins evaluate(f) scans: numerator max(center-2, 1)..center+2,
/// denominator frequency_bin(f+tol)..frequency_bin(2f).  Bin 0 is never
/// *queried* (the numerator starts at 1 and the denominator's strict
/// f > f_p + tol test rejects DC), so lo is clamped to 1.
struct BinSpan {
  std::size_t lo, hi;
};

BinSpan evaluate_span(double f_hz, std::size_t n, double fs) {
  const std::size_t center = spectral::frequency_bin(f_hz, n, fs);
  const std::size_t num_lo = center > 2 ? center - 2 : 1;
  const std::size_t num_hi = center + 2;
  const std::size_t den_lo =
      std::max<std::size_t>(spectral::frequency_bin(f_hz + kPulseToleranceHz, n, fs), 1);
  const std::size_t den_hi = spectral::frequency_bin(2.0 * f_hz, n, fs);
  return {std::min(num_lo, den_lo), std::max(num_hi, den_hi)};
}

/// An engine maintaining the union of every tracked frequency's Eq.-3 span.
spectral::SlidingDft make_engine(const DetectorConfig& cfg) {
  NIMBUS_CHECK(cfg.sample_rate_hz > 0 && cfg.duration_sec > 0);
  const std::size_t n = detector_window_samples(cfg);
  std::size_t lo = n, hi = 0;
  for (double f : cfg.tracked_freqs_hz) {
    if (f <= 0.0) continue;
    const BinSpan s = evaluate_span(f, n, cfg.sample_rate_hz);
    lo = std::min(lo, s.lo);
    hi = std::max(hi, s.hi);
  }
  NIMBUS_CHECK_MSG(lo <= hi,
                   "DetectorConfig needs a positive tracked frequency");
  return spectral::SlidingDft(n, lo, std::min(hi, n - 1));
}

}  // namespace

ElasticityDetector::ElasticityDetector() : ElasticityDetector(Config()) {}

ElasticityDetector::ElasticityDetector(const Config& config)
    : cfg_(config), dft_(make_engine(config)) {}

void ElasticityDetector::check_tracked(std::size_t lo, std::size_t hi) const {
  NIMBUS_CHECK_MSG(lo >= dft_.bin_lo() && hi <= dft_.bin_hi(),
                   "detector query outside the tracked frequency bands");
}

ElasticityDetector::Result ElasticityDetector::evaluate(
    double f_pulse_hz) const {
  const std::size_t n = window_samples();
  const BinSpan s = evaluate_span(f_pulse_hz, n, cfg_.sample_rate_hz);
  check_tracked(s.lo, std::min(s.hi, n - 1));
  if (!ready()) return Result();
  const spectral::SlidingDft& dft = dft_;
  return evaluate_band(cfg_, n, f_pulse_hz, [&dft](std::size_t k) {
    return dft.hann_magnitude(k);
  });
}

double ElasticityDetector::magnitude_near(double f_hz) const {
  const std::size_t n = window_samples();
  const std::size_t center =
      spectral::frequency_bin(f_hz, n, cfg_.sample_rate_hz);
  check_tracked(center > 1 ? center - 1 : 1, center + 1);
  if (!ready()) return 0.0;
  const spectral::SlidingDft& dft = dft_;
  return magnitude_near_band(n, cfg_.sample_rate_hz, f_hz,
                             [&dft](std::size_t k) {
                               return dft.hann_magnitude(k);
                             });
}

spectral::Spectrum ElasticityDetector::full_spectrum() const {
  std::vector<double> window;
  dft_.copy_to(window);
  return spectral::analyze(window, cfg_.sample_rate_hz);
}

}  // namespace nimbus::core
