#include "oracles/goertzel.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nimbus::oracles {

double goertzel_magnitude(const std::vector<double>& signal, std::size_t k) {
  const std::size_t n = signal.size();
  NIMBUS_CHECK(n > 0);
  const double w = 2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
  const double coeff = 2.0 * std::cos(w);
  double s_prev = 0.0, s_prev2 = 0.0;
  for (double x : signal) {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  const double power =
      s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2;
  return std::sqrt(std::max(0.0, power)) / static_cast<double>(n);
}

}  // namespace nimbus::oracles
