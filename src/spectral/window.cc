#include "spectral/window.h"

#include <cmath>

#include "util/check.h"

namespace nimbus::spectral {

std::vector<double> make_window(std::size_t n) {
  std::vector<double> w(n, 1.0);
  if (n <= 1) return w;
  // Periodic: divide by n (the window is one period of a sequence whose
  // DFT lands on exact bins), not by n-1 as the symmetric Hann does.
  const double denom = static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / denom;
    w[i] = 0.5 - 0.5 * std::cos(2.0 * M_PI * x);
  }
  return w;
}

void apply_window(std::vector<double>& signal) {
  const auto w = make_window(signal.size());
  apply_window(signal, w);
}

void apply_window(std::vector<double>& signal,
                  const std::vector<double>& window) {
  NIMBUS_CHECK(window.size() == signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) signal[i] *= window[i];
}

void remove_mean(std::vector<double>& signal) {
  if (signal.empty()) return;
  double mean = 0.0;
  for (double x : signal) mean += x;
  mean /= static_cast<double>(signal.size());
  for (double& x : signal) x -= mean;
}

}  // namespace nimbus::spectral
