#include "exp/run_config.h"

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exp/runner.h"
#include "util/check.h"

namespace nimbus::exp {

namespace {

/// Largest NIMBUS_OBS_RING accepted: 4M events (~200 MB per traced cell).
constexpr double kMaxObsRingCapacity = 1 << 22;

/// The one environment read: the value of `name`, or nullptr when it is
/// unset or empty (both mean "the default" for every knob).
const char* knob(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : nullptr;
}

void reject(const char* name, const char* expected, const char* got) {
  char msg[256];
  std::snprintf(msg, sizeof(msg), "%s must be %s, got \"%.64s\"", name,
                expected, got);
  NIMBUS_CHECK_MSG(false, msg);
}

/// A positive number no larger than `max` (a whole one when `whole`), or
/// `fallback` when unset: "4x" is not 4 and "1e400" is not unlimited.
double positive_knob(const char* name, double fallback, bool whole,
                     double max) {
  const char* v = knob(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(x > 0.0 && x <= max) ||
      (whole && x != std::floor(x))) {
    char expected[96];
    std::snprintf(expected, sizeof(expected), "a positive %s <= %.17g",
                  whole ? "integer" : "number", max);
    reject(name, expected, v);
  }
  return x;
}

/// The index of the value in `names`; unset is 0, the default.
template <std::size_t N>
int choice_knob(const char* name, const char* const (&names)[N],
                const char* expected) {
  const char* v = knob(name);
  if (v == nullptr) return 0;
  for (std::size_t i = 0; i < N; ++i) {
    if (std::strcmp(v, names[i]) == 0) return static_cast<int>(i);
  }
  reject(name, expected, v);
  return 0;
}

/// Unset, empty or "0" is false and "1" is true: "true" is a typo, not a
/// silent "off".
bool flag_knob(const char* name) {
  const char* const kFlags[] = {"0", "1"};
  return choice_knob(name, kFlags, "unset, empty, 0 or 1") == 1;
}

void path_knob(const char* name, std::string& path) {
  if (const char* v = knob(name)) path = v;
}

}  // namespace

RunConfig RunConfig::from_env() {
  RunConfig c;
  c.jobs = resolve_jobs(
      static_cast<int>(positive_knob("NIMBUS_JOBS", 0, true, INT_MAX)));
  c.cache_mode = static_cast<ResultCache::Mode>(choice_knob(
      "NIMBUS_CACHE", ResultCache::kModeNames, "off|read|readwrite"));
  path_knob("NIMBUS_CACHE_DIR", c.cache_dir);
  if (const char* shard = knob("NIMBUS_SHARD")) c.shard = parse_shard(shard);
  c.budget.max_events = static_cast<std::uint64_t>(
      positive_knob("NIMBUS_CELL_MAX_EVENTS", 0, true, 1e18));
  c.budget.max_wall_seconds =
      positive_knob("NIMBUS_CELL_WALL_SEC", 0, false, DBL_MAX);
  c.obs.mode = static_cast<obs::Mode>(
      choice_knob("NIMBUS_OBS", obs::kModeNames, "off|counters|trace"));
  path_knob("NIMBUS_OBS_DIR", c.obs.dir);
  c.obs.ring_capacity = static_cast<std::size_t>(
      positive_knob("NIMBUS_OBS_RING", c.obs.ring_capacity, true,
                    kMaxObsRingCapacity));
  c.full_run = flag_knob("NIMBUS_BENCH_FULL");
  c.shape_strict = flag_knob("NIMBUS_SHAPE_STRICT");
  path_knob("NIMBUS_TRACE_DIR", c.trace_dir);
  return c;
}

const RunConfig& RunConfig::process() {
  static const RunConfig cfg = from_env();
  return cfg;
}

}  // namespace nimbus::exp
