// Executable-spec oracle for util::ByteCounter (tests only; not part of the
// nimbus library).
//
// The per-add counter the bucketed one replaced: one (time, cumulative)
// pair per add(), exact at any query boundary.  util::ByteCounter collapses
// the adds inside each 1 ms bucket into one pair; tests assert the two
// answer every bucket-aligned query identically.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/time.h"

namespace nimbus::oracles {

class ExactByteCounter {
 public:
  void add(TimeNs t, std::int64_t bytes) {
    NIMBUS_CHECK_MSG(times_.empty() || t >= times_.back(),
                     "ExactByteCounter samples must be time-ordered");
    total_ += bytes;
    times_.push_back(t);
    cumulative_.push_back(total_);
  }

  std::int64_t total() const { return total_; }
  std::size_t samples() const { return times_.size(); }

  /// Bytes recorded with t in [t0, t1).
  std::int64_t bytes_in(TimeNs t0, TimeNs t1) const {
    return cum_before(t1) - cum_before(t0);
  }

  /// Average rate in bits/s over [t0, t1).
  double rate_bps(TimeNs t0, TimeNs t1) const {
    if (t1 <= t0) return 0.0;
    return static_cast<double>(bytes_in(t0, t1)) * 8.0 / to_sec(t1 - t0);
  }

  /// Per-bucket rates in bits/s across [t0, t1) with bucket width dt.
  std::vector<double> bucket_rates_bps(TimeNs t0, TimeNs t1,
                                       TimeNs dt) const {
    std::vector<double> out;
    for (TimeNs lo = t0; lo < t1; lo += dt) {
      out.push_back(rate_bps(lo, std::min(lo + dt, t1)));
    }
    return out;
  }

 private:
  /// Cumulative bytes recorded strictly before t.
  std::int64_t cum_before(TimeNs t) const {
    const auto it = std::lower_bound(times_.begin(), times_.end(), t);
    if (it == times_.begin()) return 0;
    return cumulative_[static_cast<std::size_t>(it - times_.begin()) - 1];
  }

  std::vector<TimeNs> times_;
  std::vector<std::int64_t> cumulative_;  // cumulative bytes after the add
  std::int64_t total_ = 0;
};

}  // namespace nimbus::oracles
