// Number formatting for bench/example CSV output.
//
// Benches print the series each paper figure plots; CSV keeps the output
// machine-parseable so plots can be regenerated from the captured stdout.
#pragma once

#include <string>

namespace nimbus::util {

/// Formats a double compactly (up to 6 significant digits, no trailing
/// zeros), so bench output is stable and readable.
std::string format_num(double v);

}  // namespace nimbus::util
