// Time-varying bottleneck rates: the simulated equivalent of Mahimahi's
// defining capability (the paper's whole testbed, Fig. 2) — emulating
// cellular / Wi-Fi links whose capacity µ(t) moves while the experiment
// runs.
//
// A RateSchedule is a piecewise-constant function of simulated time.  The
// BottleneckLink drains according to the active schedule: it asks the
// schedule for the rate in effect now and for the next change point, and
// reschedules itself with one cheap loop event per change (see
// BottleneckLink::set_schedule).  Schedules are therefore *queried*, never
// polled — a constant schedule costs zero events, a 10 ms-bucketed
// cellular trace costs 100 events per simulated second.
//
// Kinds:
//   * constant      — fixed µ (the degenerate case; installing it is
//                     bit-identical to not installing a schedule at all).
//   * steps         — explicit (time, rate) breakpoints, e.g. a capacity
//                     drop halfway through a run.
//   * sine          — µ(t) = mean·(1 + a·sin(2πt/T)), quantised to a step
//                     grid so the link sees piecewise-constant rates.
//   * random_walk   — seeded multiplicative-free walk, clamped to
//                     mean·[1−a, 1+a]; lazily materialised and memoised so
//                     rate_at() is random access yet deterministic.
//   * trace         — a Mahimahi-format packet-delivery trace (one integer
//                     millisecond timestamp per line; each line is one
//                     delivery opportunity of 1504 bytes, Mahimahi's
//                     default MTU; the final timestamp is the looping
//                     period).  Opportunities are bucketed into
//                     `bucket`-wide windows and each window becomes one
//                     piecewise-constant rate, floored at one opportunity
//                     per bucket so outages never stall the
//                     work-conserving link forever (a deliberate deviation
//                     from Mahimahi, which can park packets indefinitely).
//
// Determinism: schedules own their RNG state (seeded at construction) and
// never touch global randomness, so a (spec, seed) pair replays the same
// µ(t) in the link, in ground-truth scoring, and across parallel runner
// threads.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/time.h"

namespace nimbus::sim {

/// One piecewise-constant breakpoint: from `at` onwards the rate is
/// `rate_bps` (until the next step).
struct RateStep {
  TimeNs at = 0;
  double rate_bps = 0.0;
};

class RateSchedule {
 public:
  /// Sentinel for "the rate never changes again".
  static constexpr TimeNs kNoChange = std::numeric_limits<TimeNs>::max();

  /// Default trace smoothing window: the opportunities in each bucket
  /// become one rate.
  static constexpr TimeNs kDefaultTraceBucket = from_ms(10);

  virtual ~RateSchedule() = default;

  /// Rate in bits/s in effect at simulated time t (piecewise constant,
  /// right-continuous: the value at a change point is the new rate).
  /// Always > 0.
  virtual double rate_at(TimeNs t) const = 0;

  /// Earliest time > t at which rate_at may differ from rate_at(t), or
  /// kNoChange.  May be conservative (a change point where the rate
  /// happens to be equal is fine — the link skips no-op changes); must
  /// never skip a real change.
  virtual TimeNs next_change_after(TimeNs t) const = 0;

  /// Nominal mean rate (the constant rate; the sine/walk mean; the
  /// trace's per-period average).  Experiments use this as the "known µ"
  /// handed to schemes and for buffer sizing.
  virtual double mean_rate_bps() const = 0;

  // --- factories ---

  static std::unique_ptr<RateSchedule> constant(double rate_bps);

  /// Piecewise-constant steps.  `initial_rate_bps` applies before the
  /// first breakpoint; breakpoints must be strictly increasing in time
  /// with positive rates.
  static std::unique_ptr<RateSchedule> steps(double initial_rate_bps,
                                             std::vector<RateStep> steps);

  /// mean·(1 + amplitude_frac·sin(2πt/period)), quantised to `quantum`.
  /// Requires 0 <= amplitude_frac < 1 (the rate must stay positive).
  static std::unique_ptr<RateSchedule> sine(double mean_bps,
                                            double amplitude_frac,
                                            TimeNs period,
                                            TimeNs quantum = from_ms(100));

  /// Seeded random walk: every `step_interval` the rate moves by
  /// uniform(-step_frac, +step_frac)·mean and is clamped to
  /// mean·[1−amplitude_frac, 1+amplitude_frac].  Deterministic in `seed`
  /// (random access is memoised, so querying t out of order replays the
  /// identical walk).
  static std::unique_ptr<RateSchedule> random_walk(double mean_bps,
                                                   double amplitude_frac,
                                                   TimeNs step_interval,
                                                   double step_frac,
                                                   std::uint64_t seed);

  /// Loads a Mahimahi .trace file (see the header comment for the format
  /// and bucketing semantics).  CHECK-fails on unreadable files, malformed
  /// lines, decreasing timestamps, a timestamp too large for TimeNs, or an
  /// empty/zero-length trace.
  static std::unique_ptr<RateSchedule> from_trace_file(
      const std::string& path, TimeNs bucket = kDefaultTraceBucket);

  /// Same, from already-parsed opportunity timestamps (milliseconds).
  /// `origin` names the source in error messages.
  static std::unique_ptr<RateSchedule> from_trace_ms(
      const std::vector<std::int64_t>& opportunities_ms,
      TimeNs bucket = kDefaultTraceBucket,
      const std::string& origin = "<memory>");
};

/// Parses a Mahimahi trace file into opportunity timestamps (ms).
/// Skips blank lines and '#' comments; CHECK-fails on anything else that
/// is not a non-negative integer, or if timestamps decrease.
std::vector<std::int64_t> parse_trace_file(const std::string& path);

}  // namespace nimbus::sim
