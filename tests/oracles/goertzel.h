// Goertzel algorithm: single-bin DFT evaluation in O(N) (tests and
// bench_micro only; not part of the nimbus library).
//
// The reference detector and the sliding-DFT tests evaluate exactly the
// bins they check, so a full FFT is unnecessary; Goertzel is the direct
// per-bin definition the incremental engine is held to.
#pragma once

#include <cstddef>
#include <vector>

namespace nimbus::oracles {

/// |DFT(signal)| at bin k (same normalization as magnitude_spectrum: the
/// result is divided by N).
double goertzel_magnitude(const std::vector<double>& signal, std::size_t k);

}  // namespace nimbus::oracles
