// Time-stamped sample series with resampling and windowed reductions.
//
// Experiments record (time, value) pairs — throughput, queueing delay, the
// cross-traffic estimate z(t) — and the harnesses reduce them to the series
// the paper plots (1-second throughput buckets, CDFs, FFT input grids).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "util/time.h"

namespace nimbus::util {

class TimeSeries {
 public:
  void add(TimeNs t, double v);
  /// Growth hint: recorders pre-size from the scenario duration and sample
  /// cadence so steady-state recording never reallocates.
  void reserve(std::size_t n) {
    times_.reserve(n);
    values_.reserve(n);
  }
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  const std::vector<TimeNs>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Mean of samples with t in [t0, t1); nullopt if the window holds no
  /// samples.  (The pre-PR-4 contract returned 0.0 for an empty window,
  /// indistinguishable from a real zero mean — callers that want that
  /// behaviour say `.value_or(0.0)` explicitly.)
  std::optional<double> mean_in(TimeNs t0, TimeNs t1) const;

  /// Resamples onto a uniform grid of `n` points spanning [t0, t0+n*dt) by
  /// zero-order hold (last sample at or before each grid point; the first
  /// sample is used for grid points before any sample).
  std::vector<double> resample(TimeNs t0, TimeNs dt, std::size_t n) const;

  /// Buckets samples into fixed windows of width `dt` starting at t0 and
  /// returns per-bucket means (empty buckets repeat the previous value, or
  /// 0 at the start).
  std::vector<double> bucket_means(TimeNs t0, TimeNs t1, TimeNs dt) const;

  /// Values with t in [t0, t1).
  std::vector<double> values_in(TimeNs t0, TimeNs t1) const;

  void clear();

 private:
  std::vector<TimeNs> times_;   // non-decreasing
  std::vector<double> values_;
};

/// Counter series: record cumulative byte counts and report rates.
///
/// `add(t, bytes)` accumulates; `rate_bps(t0, t1)` is the average rate over
/// the interval.  Used for per-flow throughput accounting.
///
/// Storage is bucketed: all adds inside one kBucketWidth window collapse
/// into a single (time, cumulative) pair stamped at the bucket's last
/// nanosecond.  The recorder's per-delivery hot path then usually just
/// overwrites the running cumulative instead of growing a vector (~8
/// packets/bucket/flow at paper rates), and memory shrinks accordingly.
/// Queries whose boundaries are bucket-aligned — every bench reduces on
/// second/millisecond grids — return bit-identical results to a counter
/// storing one pair per add (tests/oracles/exact_byte_counter.h); a
/// boundary cutting through a bucket attributes that bucket's bytes to its
/// final nanosecond.
class ByteCounter {
 public:
  static constexpr TimeNs kBucketWidth = from_ms(1);

  void add(TimeNs t, std::int64_t bytes);
  std::int64_t total() const { return total_; }
  /// Stored sample count: at most one per occupied bucket (exposed for
  /// tests and benches).
  std::size_t samples() const { return times_.size(); }

  /// Bytes recorded with t in [t0, t1).
  std::int64_t bytes_in(TimeNs t0, TimeNs t1) const;

  /// Average rate in bits/s over [t0, t1).
  double rate_bps(TimeNs t0, TimeNs t1) const;

  /// Per-bucket rates in bits/s across [t0, t1) with bucket width dt.
  std::vector<double> bucket_rates_bps(TimeNs t0, TimeNs t1, TimeNs dt) const;

 private:
  std::vector<TimeNs> times_;
  std::vector<std::int64_t> cumulative_;  // cumulative bytes after the event
  std::int64_t total_ = 0;
};

}  // namespace nimbus::util
