// Executable-spec oracle for core::ElasticityDetector (tests and
// bench_micro only; not part of the nimbus library).
//
// ReferenceElasticityDetector is the from-scratch spectral pipeline the
// seed shipped: keep the last N samples in a plain ring, and on every
// query snapshot it, remove the mean, apply periodic Hann, and run one
// O(n) Goertzel per scanned bin — O(bins * n) per evaluate.  It answers
// any frequency, tracked or not.  Its Eq. 3 band scan is the production
// core::evaluate_band / core::magnitude_near_band, so engine-vs-oracle
// differences are limited to per-bin floating-point error.
#pragma once

#include <cstddef>
#include <vector>

#include "core/elasticity.h"
#include "spectral/spectrum.h"

namespace nimbus::oracles {

/// Fixed-capacity sliding window of uniformly sampled values, stored as a
/// flat ring buffer.
class SlidingSignal {
 public:
  explicit SlidingSignal(std::size_t capacity);

  void add(double v);
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Oldest-to-newest copy of the window.
  std::vector<double> snapshot() const;

  /// Writes the window oldest-to-newest into `out` (resized to size()).
  void copy_to(std::vector<double>& out) const;

 private:
  std::size_t capacity_;
  std::vector<double> buf_;   // ring storage, sized capacity_
  std::size_t head_ = 0;      // index of the oldest sample
  std::size_t size_ = 0;
};

class ReferenceElasticityDetector {
 public:
  using Config = core::DetectorConfig;
  using Result = core::DetectorResult;

  ReferenceElasticityDetector();
  explicit ReferenceElasticityDetector(const Config& config);

  void add_sample(double value) { signal_.add(value); }
  bool ready() const { return signal_.full(); }
  std::size_t window_samples() const { return signal_.capacity(); }
  void reset() { signal_.clear(); }

  Result evaluate(double f_pulse_hz) const;
  double magnitude_near(double f_hz) const;
  spectral::Spectrum full_spectrum() const;

  const Config& config() const { return cfg_; }
  const SlidingSignal& signal() const { return signal_; }

 private:
  /// Fills scratch_ with the mean-removed, windowed signal and returns it.
  const std::vector<double>& windowed_snapshot() const;

  Config cfg_;
  SlidingSignal signal_;
  mutable std::vector<double> scratch_;  // reused by every query
  std::vector<double> window_;           // periodic Hann coefficients
};

}  // namespace nimbus::oracles
