// The configuration of a run: every NIMBUS_* knob, parsed once.
//
// RunConfig is a plain value.  run_sweep takes one (default: the process
// config); tests build their own.  A default-constructed RunConfig is
// hermetic: one job, no cache, no shard, unlimited budget, telemetry off.
//
// RunConfig::from_env() is the only code in src/ and bench/ that reads the
// environment (detlint R1).  Unset or empty means the default; a value the
// knob does not accept CHECK-fails naming the variable.  README
// "Configuration" lists the knobs.
#pragma once

#include <string>

#include "exp/result_cache.h"
#include "exp/scenario.h"

namespace nimbus::exp {

struct RunConfig {
  int jobs = 1;  // sweep worker threads; 1 is the serial reference path
  ResultCache::Mode cache_mode = ResultCache::Mode::kOff;
  std::string cache_dir = ".nimbus-cache";
  ShardConfig shard;
  RunBudget budget;
  ObsConfig obs;

  // Bench-only settings (bench/common.h, bench_varlink).
  bool full_run = false;
  bool shape_strict = false;
  std::string trace_dir = "data/traces";

  /// Parses the NIMBUS_* environment; CHECK-fails on a value a knob does
  /// not accept.  Reads the environment on every call.
  static RunConfig from_env();

  /// The process-wide config: from_env() on first use, then fixed.
  static const RunConfig& process();
};

}  // namespace nimbus::exp
