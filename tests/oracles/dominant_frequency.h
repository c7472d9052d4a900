// Argmax over a one-shot spectrum, for tests that check where a signal's
// energy sits.  The library never needs it: Eq. 3 scores a band
// (core::evaluate_band), not a peak.
#pragma once

#include <cstddef>

#include "spectral/spectrum.h"

namespace nimbus::oracles {

/// Frequency of the largest non-DC bin (0 for a DC-only spectrum).
inline double dominant_frequency(const spectral::Spectrum& spec) {
  std::size_t best = 1;
  for (std::size_t k = 2; k < spec.bins(); ++k) {
    if (spec.magnitude[k] > spec.magnitude[best]) best = k;
  }
  return spec.bins() > 1 ? spec.frequency(best) : 0.0;
}

}  // namespace nimbus::oracles
