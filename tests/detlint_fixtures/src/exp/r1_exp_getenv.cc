// R1 positive: getenv in an exp-layer file other than run_config.cc.  The
// exp layer is not a config-reading zone; only RunConfig::from_env parses
// the environment.
#include <cstdlib>

bool r1_exp_getenv() {
  return std::getenv("NIMBUS_CACHE") != nullptr;  // R1: getenv
}
