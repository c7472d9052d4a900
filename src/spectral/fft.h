// Fast Fourier transforms.
//
// The elasticity detector computes the FFT of the cross-traffic rate
// estimate z(t) sampled every 10 ms over a 5 s window — exactly 500 samples,
// which is not a power of two.  We provide:
//   * radix-2 iterative Cooley-Tukey for power-of-two sizes,
//   * Bluestein's chirp-z algorithm for arbitrary sizes (used for N=500),
//   * the real-input half-magnitude spectrum built on them.
//
// All transforms are unnormalized (forward sums x[n]·e^{-2πi kn/N}); the
// inverse divides by N so ifft(fft(x)) == x.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace nimbus::spectral {

using Complex = std::complex<double>;

/// True iff n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// In-place radix-2 FFT; `data.size()` must be a power of two.
/// `inverse` applies the conjugate transform and divides by N.
void fft_radix2(std::vector<Complex>& data, bool inverse = false);

/// FFT of arbitrary size (radix-2 when possible, Bluestein otherwise).
std::vector<Complex> fft(const std::vector<Complex>& input,
                         bool inverse = false);

/// Magnitudes of the first N/2+1 bins of a real signal's spectrum,
/// normalized by N so a unit-amplitude sinusoid at an exact bin yields
/// ~0.5 in that bin (and the DC bin equals the signal mean).
std::vector<double> magnitude_spectrum(const std::vector<double>& input);

/// Frequency (Hz) of bin k for an N-point transform at sample rate fs.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz);

/// Closest bin to frequency f (Hz) for an N-point transform at rate fs.
std::size_t frequency_bin(double f_hz, std::size_t n, double sample_rate_hz);

}  // namespace nimbus::spectral
