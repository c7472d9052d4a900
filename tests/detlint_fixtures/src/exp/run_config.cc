// R1 negative: the one file where getenv is legal, the RunConfig parse.
#include <cstdlib>

const char* run_config_knob(const char* name) { return std::getenv(name); }
