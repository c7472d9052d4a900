#include "spectral/sliding_dft.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nimbus::spectral {

SlidingDft::SlidingDft(std::size_t window, std::size_t bin_lo,
                       std::size_t bin_hi)
    : n_(window),
      lo_(bin_lo),
      hi_(bin_hi),
      ilo_(bin_lo > 0 ? bin_lo - 1 : 0),
      ihi_(std::min(bin_hi + 1, window - 1)),
      ring_(window, 0.0) {
  NIMBUS_CHECK(n_ > 0 && lo_ <= hi_ && hi_ < n_);
  const std::size_t count = ihi_ - ilo_ + 1;
  bins_.assign(count, Complex(0.0, 0.0));
  rot_.resize(count);
  step_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double w = 2.0 * M_PI * static_cast<double>(ilo_ + i) /
                     static_cast<double>(n_);
    rot_[i] = Complex(std::cos(w), std::sin(w));
    step_[i] = std::conj(rot_[i]);
  }
}

// NIMBUS_HOT_PATH begin
void SlidingDft::add_sample(double x) {
  double oldest = 0.0;
  if (size_ == n_) {
    oldest = ring_[head_];
    ring_[head_] = x;
    head_ = head_ + 1 == n_ ? 0 : head_ + 1;
  } else {
    std::size_t pos = head_ + size_;
    if (pos >= n_) pos -= n_;
    ring_[pos] = x;
    ++size_;
  }
  // S_k <- (S_k - oldest + x) * e^{+i*2*pi*k/N}.  During fill `oldest` is
  // the implicit zero the conceptual window held, and after exactly N adds
  // the accumulated rotations cancel (e^{i*2*pi*k} = 1), leaving the exact
  // DFT with index 0 at the oldest sample.
  const double delta = x - oldest;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    bins_[i] = (bins_[i] + delta) * rot_[i];
  }
  if (size_ == n_ && ++since_resync_ >= n_) force_resync();
}

void SlidingDft::reset() {
  // O(1): ring contents become dead — every position is overwritten before
  // size_ can reach n_ again, and no query path reads a non-full window.
  head_ = 0;
  size_ = 0;
  since_resync_ = 0;
  std::fill(bins_.begin(), bins_.end(), Complex(0.0, 0.0));
}

void SlidingDft::force_resync() {
  // Direct DFT of the ring per maintained bin, oldest to newest — the
  // recurrence's invariant recomputed without its accumulated rounding.
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    Complex acc(0.0, 0.0);
    Complex c(1.0, 0.0);
    const Complex step = step_[i];
    std::size_t pos = head_;
    for (std::size_t j = 0; j < size_; ++j) {
      acc += ring_[pos] * c;
      c *= step;
      pos = pos + 1 == n_ ? 0 : pos + 1;
    }
    bins_[i] = acc;
  }
  since_resync_ = 0;
  ++resyncs_;
}

Complex SlidingDft::centered_bin(std::size_t k) const {
  if (k == 0 || k == n_) return Complex(0.0, 0.0);
  return bins_[k - ilo_];
}

double SlidingDft::hann_magnitude(std::size_t k) const {
  // k = 0 is the (windowed) DC bin; the detector never asks for it, and
  // the k-1 neighbour would wrap to N-1, which the band does not maintain.
  NIMBUS_CHECK(tracks(k) && k >= 1);
  // DFT of (x - mean) * periodic_hann at bin k: the window contributes
  // only bins k-1, k, k+1, and mean removal only zeroes bin 0 (mod N).
  const Complex c = 0.5 * centered_bin(k) - 0.25 * centered_bin(k - 1) -
                    0.25 * centered_bin(k + 1);
  return std::abs(c) / static_cast<double>(n_);
}
// NIMBUS_HOT_PATH end

void SlidingDft::copy_to(std::vector<double>& out) const {
  out.resize(size_);
  std::size_t pos = head_;
  for (std::size_t j = 0; j < size_; ++j) {
    out[j] = ring_[pos];
    pos = pos + 1 == n_ ? 0 : pos + 1;
  }
}

}  // namespace nimbus::spectral
