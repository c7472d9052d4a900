#include "oracles/reference_detector.h"

#include <algorithm>

#include "oracles/goertzel.h"
#include "spectral/window.h"
#include "util/check.h"

namespace nimbus::oracles {

SlidingSignal::SlidingSignal(std::size_t capacity)
    : capacity_(capacity), buf_(capacity) {
  NIMBUS_CHECK(capacity_ > 0);
}

void SlidingSignal::add(double v) {
  if (size_ == capacity_) {
    buf_[head_] = v;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  } else {
    std::size_t pos = head_ + size_;
    if (pos >= capacity_) pos -= capacity_;
    buf_[pos] = v;
    ++size_;
  }
}

void SlidingSignal::copy_to(std::vector<double>& out) const {
  out.resize(size_);
  const std::size_t tail_len = std::min(size_, capacity_ - head_);
  std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(head_), tail_len,
              out.begin());
  std::copy_n(buf_.begin(), size_ - tail_len,
              out.begin() + static_cast<std::ptrdiff_t>(tail_len));
}

std::vector<double> SlidingSignal::snapshot() const {
  std::vector<double> out;
  copy_to(out);
  return out;
}

ReferenceElasticityDetector::ReferenceElasticityDetector()
    : ReferenceElasticityDetector(Config()) {}

ReferenceElasticityDetector::ReferenceElasticityDetector(const Config& config)
    : cfg_(config),
      signal_(core::detector_window_samples(config)),
      window_(spectral::make_window(signal_.capacity())) {
  NIMBUS_CHECK(cfg_.sample_rate_hz > 0 && cfg_.duration_sec > 0);
}

const std::vector<double>& ReferenceElasticityDetector::windowed_snapshot()
    const {
  signal_.copy_to(scratch_);
  spectral::remove_mean(scratch_);
  spectral::apply_window(scratch_, window_);
  return scratch_;
}

ReferenceElasticityDetector::Result ReferenceElasticityDetector::evaluate(
    double f_pulse_hz) const {
  if (!ready()) return Result();
  const std::vector<double>& x = windowed_snapshot();
  return core::evaluate_band(cfg_, x.size(), f_pulse_hz, [&x](std::size_t k) {
    return goertzel_magnitude(x, k);
  });
}

double ReferenceElasticityDetector::magnitude_near(double f_hz) const {
  if (!ready()) return 0.0;
  const std::vector<double>& x = windowed_snapshot();
  return core::magnitude_near_band(x.size(), cfg_.sample_rate_hz, f_hz,
                                   [&x](std::size_t k) {
                                     return goertzel_magnitude(x, k);
                                   });
}

spectral::Spectrum ReferenceElasticityDetector::full_spectrum() const {
  return spectral::analyze(signal_.snapshot(), cfg_.sample_rate_hz);
}

}  // namespace nimbus::oracles
