// Window functions for spectral analysis.
//
// The detector's z(t) window is not synchronized to the pulse phase, so a
// Hann taper limits spectral leakage from the strong pulse component into
// the comparison band (f_p, 2·f_p).  The taper is the periodic (DFT-even)
// Hann, w[j] = 0.5 - 0.5 cos(2*pi*j/n): exactly three complex exponentials
// at DFT bins -1/0/+1, so windowing can also be applied in the frequency
// domain as a 3-bin convolution (the sliding-DFT engine's form).
#pragma once

#include <cstddef>
#include <vector>

namespace nimbus::spectral {

/// Periodic Hann coefficients of length n.
std::vector<double> make_window(std::size_t n);

/// Multiplies `signal` by the periodic Hann window in place.
void apply_window(std::vector<double>& signal);

/// Multiplies `signal` by precomputed coefficients in place (the cached-
/// window form: make_window allocates, so per-call construction is banned
/// on the detector's evaluate path).  `window` must have signal.size()
/// entries.
void apply_window(std::vector<double>& signal,
                  const std::vector<double>& window);

/// Removes the mean in place (the detector looks for AC components; the DC
/// bin otherwise dominates the spectrum).
void remove_mean(std::vector<double>& signal);

}  // namespace nimbus::spectral
