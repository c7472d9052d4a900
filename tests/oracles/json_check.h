// Minimal JSON well-formedness checker used by obs_test to assert that
// exported Chrome-trace artifacts parse (and that corrupted ones are
// rejected) without depending on an external JSON library (tests only;
// not part of the nimbus library).
#pragma once

#include <string>

namespace nimbus::oracles {

/// True iff `text` is a single syntactically valid JSON value (RFC 8259
/// grammar: structure, string escapes, number format) with nothing but
/// whitespace after it.  Does not enforce key uniqueness.
bool json_valid(const std::string& text);

}  // namespace nimbus::oracles
