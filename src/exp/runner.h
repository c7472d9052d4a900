// Parallel experiment execution.
//
// Scenarios are embarrassingly parallel: each one owns its Network (and
// therefore its EventLoop, RNG streams, and recorder), so a batch of specs
// can run across a thread pool with zero shared mutable state.  run_sweep
// is the one way to run a batch of ScenarioSpecs; on top of the thread
// pool it memoises scored cells, shards them across processes, watchdogs
// each run, and writes a sweep manifest.  The runner guarantees:
//   * stable ordering — results land at the index of their spec, and the
//     result callback fires in spec order regardless of completion order;
//   * deterministic seeding — derive_seed(base, i) gives per-scenario base
//     seeds that do not depend on thread scheduling;
//   * a serial reference path (jobs = 1) that executes in spec order on
//     the calling thread, used by tests to assert parallel == serial.
//
// run_sweep's worker count, cache, shard, budget and telemetry all come
// from one RunConfig (exp/run_config.h); nothing here reads the
// environment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "exp/result_cache.h"
#include "exp/run_config.h"
#include "exp/scenario.h"

namespace nimbus::exp {

/// Resolves a job count: `jobs` if > 0, else hardware concurrency (at
/// least 1).
int resolve_jobs(int jobs);

/// Deterministic per-scenario seed derivation (splitmix64 of base + index).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

class ParallelRunner {
 public:
  struct Options {
    int jobs = 0;         // 0 = hardware_concurrency
    bool serial = false;  // reference path: in-order on the calling thread
  };

  explicit ParallelRunner(Options opts);

  /// Runs task(i) for every i in [0, n); blocks until all complete.  The
  /// optional on_done(i) fires exactly once per successful task,
  /// serialized and in index order (task i's callback runs only after
  /// tasks 0..i-1 reported).  The first exception thrown by a task or
  /// callback is rethrown here after the pool drains; callbacks stop at
  /// the lowest failed index, matching the serial path (which reports
  /// every task before the throwing one and none after).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& task,
                const std::function<void(std::size_t)>& on_done = nullptr);

  /// Maps indices to results, in input order.  `on_result` fires in index
  /// order (serialized) as the completed prefix grows.
  template <typename R>
  std::vector<R> map(
      std::size_t n, const std::function<R(std::size_t)>& fn,
      const std::function<void(std::size_t, R&)>& on_result = nullptr) {
    // Workers write out[i] concurrently; std::vector<bool> packs bits into
    // shared words, which would be a data race.  Map to char/int instead.
    static_assert(!std::is_same_v<R, bool>,
                  "ParallelRunner::map<bool> races on vector<bool> storage");
    std::vector<R> out(n);
    std::function<void(std::size_t)> done;
    if (on_result) done = [&](std::size_t i) { on_result(i, out[i]); };
    for_each(n, [&](std::size_t i) { out[i] = fn(i); }, done);
    return out;
  }

  int jobs() const { return jobs_; }

 private:
  int jobs_;
  bool serial_;
};

/// Reduces one finished run to its cacheable scored summary.
using CellCollect =
    std::function<CellResult(const ScenarioSpec&, ScenarioRun&)>;

/// The sweep runner.  Builds and runs every spec (each scenario gets its
/// own network/loop), reduces each finished run to a CellResult via
/// `collect` (called on the worker thread, with the network still alive),
/// and returns the results in spec order.  `on_result` fires in spec order
/// as the completed prefix grows — benches print CSV rows from it without
/// interleaving.  `setup` (if given) is handed to run_scenario: it runs
/// per scenario on the worker thread after assembly and before the event
/// loop starts, and must only touch the BuiltScenario it is handed.
///
/// `cfg` (default: the process config) sets the worker count (1 is the
/// serial reference path), cache, shard, cell budget and telemetry.
///
/// Cells are memoised and sharded.  Each spec is keyed by (spec_hash,
/// spec.seed, code_fingerprint); a cache hit returns the stored
/// CellResult without building a network (neither `setup` nor `collect`
/// runs), a miss runs the scenario, applies `collect`, and (in readwrite
/// mode) stores the summary.  Under an active cfg.shard, cells outside
/// this process's shard are never computed: they are served from the
/// cache when present and otherwise come back valid=false (NaN values) —
/// see result_cache.h.  Specs that cannot be canonicalized
/// (spec_cacheable false) always compute.
///
/// The cache rule: `collect` and `setup` are part of a cell's identity
/// but not of its hash — the code fingerprint (the whole binary) covers
/// their code, and the spec hash (name and duration included) covers the
/// spec.  So they may read only the spec they are handed and constants;
/// any other captured value would let two different cells share a key.
///
/// Watchdog: each computed cell runs under cfg.budget (default
/// unlimited).  A cell whose event loop trips the budget comes back
/// valid=false with fail = kTimeout (wall) or kEventBudget (events)
/// instead of stalling the suite; failed cells are never stored in the
/// cache and `collect` is not called on their truncated runs.
///
/// With cfg.obs on and cfg.obs.dir set, every call writes one sweep
/// manifest; its summary row records cfg (see README "Observability").
std::vector<CellResult> run_sweep(
    const std::vector<ScenarioSpec>& specs, const CellCollect& collect,
    const std::function<void(std::size_t, CellResult&)>& on_result = nullptr,
    const ScenarioSetup& setup = nullptr,
    const RunConfig& cfg = RunConfig::process());

}  // namespace nimbus::exp
