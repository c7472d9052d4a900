// Deterministic random number generation for simulations.
//
// All experiment randomness flows through explicitly seeded `Rng` instances
// (xoshiro256**), so every run is reproducible bit-for-bit regardless of the
// platform's std::random implementation.
#pragma once

#include <cstdint>

namespace nimbus::util {

/// xoshiro256** PRNG with distribution helpers.
///
/// There is deliberately no default constructor: every RNG in the tree
/// takes an explicit seed that flows from a scenario seed via
/// exp::derive_seed / flow_seed / split(), so no stream can silently
/// depend on "whatever the default was" (detlint rule R4 enforces the
/// same invariant for engines this class cannot see).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bounded Pareto on [lo, hi] with shape alpha.
  double bounded_pareto(double alpha, double lo, double hi);

  /// True with probability p.
  bool bernoulli(double p);

  /// Derives an independent child generator (for per-flow streams).
  Rng split();

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace nimbus::util
