// The elasticity detector (paper sections 3.3-3.4).
//
// The sender samples the cross-traffic estimate z(t) every report interval
// (10 ms), keeps the last FFT-duration (5 s) of samples, and computes the
// elasticity metric
//
//   eta = |FFT_z(f_p)| / max_{f in (f_p, 2 f_p)} |FFT_z(f)|      (Eq. 3)
//
// Cross traffic is declared elastic iff eta >= eta_threshold (2).
//
// The same machinery, pointed at a watcher's receive rate R(t), detects
// which frequency a concurrent pulser is using (section 6).
//
// Implementation notes: with a 5 s window at 100 Hz, N = 500 and both pulse
// frequencies (5 and 6 Hz) land on exact bins (25 and 30).  The band query
// only needs ~40 bins, and those bins are maintained *incrementally* by a
// sliding DFT (spectral/sliding_dft.h) over a periodic-Hann window:
// O(tracked_bins) per add_sample and O(1) per bin per evaluate.  The
// detector is that engine alone — its ring is the only copy of the window,
// and queries are only defined at the configured tracked frequencies (an
// untracked query CHECK-fails).  full_spectrum() runs the Bluestein FFT over
// the engine's ring for diagnostics and figure reproduction.  The
// from-scratch recompute (snapshot, remove mean, window, Goertzel) lives
// in tests/oracles/ as the executable spec the engine is tested against;
// it shares the Eq. 3 band scan below.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "spectral/fft.h"
#include "spectral/sliding_dft.h"
#include "spectral/spectrum.h"

namespace nimbus::core {

struct DetectorConfig {
  double sample_rate_hz = 100.0;  // one sample per 10 ms report
  double duration_sec = 5.0;      // FFT window (paper: 5 s)
  double eta_threshold = 2.0;     // paper section 3.4
  /// Pulse frequencies whose Eq.-3 bands the sliding DFT maintains
  /// (both, because watchers evaluate f_pc *and* f_pd every report).
  /// evaluate()/magnitude_near() are defined only inside these bands.
  /// <= 0 entries are ignored; at least one must be positive.
  std::array<double, 2> tracked_freqs_hz = {5.0, 6.0};
};

/// Bins within this distance of f_p count toward the numerator peak
/// (windowing spreads an exact-bin tone into its neighbours).
inline constexpr double kPulseToleranceHz = 0.25;

struct DetectorResult {
  double eta = 0.0;
  bool elastic = false;
  double pulse_magnitude = 0.0;  // |FFT| near f_p (for pulser conflict
                                 // detection and diagnostics)
  bool valid = false;            // window was full
  /// Argmax of the Eq.-3 denominator: the strongest bin strictly inside
  /// (f_p + tol, 2 f_p).  Decision traces record it so a surprising eta
  /// can be attributed to the competing frequency that produced it.
  std::size_t band_max_bin = 0;
  double band_max_magnitude = 0.0;
};

/// Samples in the detector window: N = sample_rate * duration.
inline std::size_t detector_window_samples(const DetectorConfig& cfg) {
  return static_cast<std::size_t>(cfg.sample_rate_hz * cfg.duration_sec);
}

/// Eq. (3) band scan over any per-bin magnitude source `mag(k)` of an
/// n-point window — the one Eq. 3 in the tree.  The production engine
/// (mag = O(1) sliding-DFT band lookup), the test oracle (mag = Goertzel
/// over the windowed snapshot) and Fig. 5's score of full_spectrum() (mag
/// = its FFT magnitudes) share this scan verbatim — loop bounds, tolerance
/// tests, tie-breaking by max — so they can only differ in per-bin
/// floating-point error, never in which bins they consider.
template <typename MagFn>
DetectorResult evaluate_band(const DetectorConfig& cfg, std::size_t n,
                             double f_pulse_hz, MagFn&& mag) {
  DetectorResult r;
  r.valid = true;
  const double fs = cfg.sample_rate_hz;
  auto bin_freq = [&](std::size_t k) {
    return spectral::bin_frequency(k, n, fs);
  };

  // Numerator: strongest bin within tolerance of f_p.
  const std::size_t center = spectral::frequency_bin(f_pulse_hz, n, fs);
  double num = 0.0;
  for (std::size_t k = (center > 2 ? center - 2 : 1); k <= center + 2; ++k) {
    if (std::abs(bin_freq(k) - f_pulse_hz) <= kPulseToleranceHz + 1e-9) {
      num = std::max(num, mag(k));
    }
  }
  r.pulse_magnitude = num;

  // Denominator: peak strictly inside (f_p + tol, 2 f_p).
  const std::size_t lo =
      spectral::frequency_bin(f_pulse_hz + kPulseToleranceHz, n, fs);
  const std::size_t hi = spectral::frequency_bin(2.0 * f_pulse_hz, n, fs);
  double denom = 0.0;
  for (std::size_t k = std::max<std::size_t>(lo, 1); k <= hi; ++k) {
    const double f = bin_freq(k);
    if (f > f_pulse_hz + kPulseToleranceHz && f < 2.0 * f_pulse_hz) {
      const double m = mag(k);
      if (m > denom) {
        denom = m;
        r.band_max_bin = k;
      }
    }
  }
  r.band_max_magnitude = denom;

  r.eta = denom > 0.0 ? num / denom : (num > 0.0 ? 1e9 : 0.0);
  r.elastic = r.eta >= cfg.eta_threshold;
  return r;
}

/// Peak magnitude over the bins adjacent to f (numerator of eta without
/// the tolerance filter); shared by the engine and the oracle like
/// evaluate_band.
template <typename MagFn>
double magnitude_near_band(std::size_t n, double fs, double f_hz,
                           MagFn&& mag) {
  const std::size_t center = spectral::frequency_bin(f_hz, n, fs);
  double best = 0.0;
  for (std::size_t k = (center > 1 ? center - 1 : 1); k <= center + 1; ++k) {
    best = std::max(best, mag(k));
  }
  return best;
}

/// The detector: add_sample feeds the sliding-DFT engine's tracked bands,
/// and evaluate()/magnitude_near() are pure band-max lookups — zero copies,
/// zero allocations, O(1) per bin.
class ElasticityDetector {
 public:
  using Config = DetectorConfig;
  using Result = DetectorResult;

  ElasticityDetector();
  /// CHECK-fails unless the window is non-empty and at least one
  /// tracked frequency is positive.
  explicit ElasticityDetector(const Config& config);

  /// Adds one z (or R) sample; call at the configured sample rate.
  void add_sample(double value) { dft_.add_sample(value); }
  bool ready() const { return dft_.full(); }
  std::size_t window_samples() const { return dft_.window_size(); }
  void reset() { dft_.reset(); }

  /// Evaluates Eq. (3) for a pulse at f_pulse_hz, which must lie inside a
  /// tracked band (CHECK-fails otherwise).
  Result evaluate(double f_pulse_hz) const;

  /// Magnitude of the signal's spectrum near frequency f (numerator of
  /// eta); used by watchers/pulser-conflict checks.  Same tracked-band
  /// contract as evaluate().
  double magnitude_near(double f_hz) const;

  /// Full magnitude spectrum of the current window (diagnostics, Fig. 5).
  spectral::Spectrum full_spectrum() const;

  const Config& config() const { return cfg_; }

  /// The incremental engine (introspection for tests and benches).
  const spectral::SlidingDft& engine() const { return dft_; }

 private:
  /// CHECK-fails unless the engine maintains every bin in [lo, hi].
  void check_tracked(std::size_t lo, std::size_t hi) const;

  Config cfg_;
  spectral::SlidingDft dft_;
};

}  // namespace nimbus::core
