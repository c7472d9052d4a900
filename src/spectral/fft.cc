#include "spectral/fft.h"

#include <cmath>

#include "util/check.h"

namespace nimbus::spectral {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_radix2(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  NIMBUS_CHECK_MSG(is_power_of_two(n), "fft_radix2 requires power-of-two size");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

namespace {

// Bluestein's algorithm: expresses an arbitrary-N DFT as a convolution,
// evaluated with a power-of-two FFT of size >= 2N-1.
std::vector<Complex> fft_bluestein(const std::vector<Complex>& input,
                                   bool inverse) {
  const std::size_t n = input.size();
  const double sign = inverse ? 1.0 : -1.0;

  // Chirp: w[k] = e^{sign * i*pi*k^2/n}.  Use k^2 mod 2n to keep the
  // argument small (k^2 overflows precision for large k otherwise).
  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto k2 = static_cast<std::uint64_t>(k) * k % (2 * n);
    const double ang = sign * M_PI * static_cast<double>(k2) /
                       static_cast<double>(n);
    chirp[k] = Complex(std::cos(ang), std::sin(ang));
  }

  const std::size_t m = next_power_of_two(2 * n - 1);
  std::vector<Complex> a(m, Complex(0, 0)), b(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) a[k] = input[k] * chirp[k];
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = b[m - k] = std::conj(chirp[k]);
  }

  fft_radix2(a, /*inverse=*/false);
  fft_radix2(b, /*inverse=*/false);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  fft_radix2(a, /*inverse=*/true);

  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k];
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : out) x *= inv_n;
  }
  return out;
}

}  // namespace

std::vector<Complex> fft(const std::vector<Complex>& input, bool inverse) {
  NIMBUS_CHECK(!input.empty());
  if (is_power_of_two(input.size())) {
    std::vector<Complex> data = input;
    fft_radix2(data, inverse);
    return data;
  }
  return fft_bluestein(input, inverse);
}

namespace {

/// FFT of a real signal; returns the full complex spectrum (size N).
std::vector<Complex> fft_real(const std::vector<double>& input) {
  std::vector<Complex> data(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    data[i] = Complex(input[i], 0.0);
  }
  return fft(data, /*inverse=*/false);
}

}  // namespace

std::vector<double> magnitude_spectrum(const std::vector<double>& input) {
  const auto spec = fft_real(input);
  const std::size_t n = input.size();
  std::vector<double> mags(n / 2 + 1);
  for (std::size_t k = 0; k < mags.size(); ++k) {
    mags[k] = std::abs(spec[k]) / static_cast<double>(n);
  }
  return mags;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) {
  return static_cast<double>(k) * sample_rate_hz / static_cast<double>(n);
}

std::size_t frequency_bin(double f_hz, std::size_t n, double sample_rate_hz) {
  const double k = f_hz * static_cast<double>(n) / sample_rate_hz;
  auto bin = static_cast<std::size_t>(k + 0.5);
  if (bin > n / 2) bin = n / 2;
  return bin;
}

}  // namespace nimbus::spectral
