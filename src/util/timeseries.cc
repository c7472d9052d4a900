#include "util/timeseries.h"

#include <algorithm>

#include "util/check.h"

namespace nimbus::util {

void TimeSeries::add(TimeNs t, double v) {
  NIMBUS_CHECK_MSG(times_.empty() || t >= times_.back(),
                   "TimeSeries samples must be time-ordered");
  times_.push_back(t);
  values_.push_back(v);
}

std::optional<double> TimeSeries::mean_in(TimeNs t0, TimeNs t1) const {
  const auto lo = std::lower_bound(times_.begin(), times_.end(), t0);
  const auto hi = std::lower_bound(times_.begin(), times_.end(), t1);
  if (lo == hi) return std::nullopt;
  double sum = 0.0;
  for (auto it = lo; it != hi; ++it) {
    sum += values_[static_cast<std::size_t>(it - times_.begin())];
  }
  return sum / static_cast<double>(hi - lo);
}

std::vector<double> TimeSeries::resample(TimeNs t0, TimeNs dt,
                                         std::size_t n) const {
  std::vector<double> out(n, 0.0);
  if (times_.empty()) return out;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TimeNs t = t0 + static_cast<TimeNs>(i) * dt;
    while (idx + 1 < times_.size() && times_[idx + 1] <= t) ++idx;
    // Zero-order hold; before the first sample, hold the first value.
    out[i] = values_[idx];
  }
  return out;
}

std::vector<double> TimeSeries::bucket_means(TimeNs t0, TimeNs t1,
                                             TimeNs dt) const {
  NIMBUS_CHECK(dt > 0 && t1 > t0);
  const auto n = static_cast<std::size_t>((t1 - t0 + dt - 1) / dt);
  std::vector<double> out(n, 0.0);
  // One binary search to the window start, then a single forward sweep:
  // buckets are adjacent, so each sample is visited exactly once (the seed
  // version re-searched the whole series twice per bucket).  Samples are
  // summed in the same order as before, keeping results bit-identical.
  std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), t0) - times_.begin());
  double prev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const TimeNs hi = std::min(t0 + static_cast<TimeNs>(i + 1) * dt, t1);
    double sum = 0.0;
    std::size_t count = 0;
    while (idx < times_.size() && times_[idx] < hi) {
      sum += values_[idx];
      ++idx;
      ++count;
    }
    if (count == 0) {
      out[i] = prev;
      continue;
    }
    out[i] = sum / static_cast<double>(count);
    prev = out[i];
  }
  return out;
}

std::vector<double> TimeSeries::values_in(TimeNs t0, TimeNs t1) const {
  const auto lo = std::lower_bound(times_.begin(), times_.end(), t0);
  const auto hi = std::lower_bound(times_.begin(), times_.end(), t1);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    out.push_back(values_[static_cast<std::size_t>(it - times_.begin())]);
  }
  return out;
}

void TimeSeries::clear() {
  times_.clear();
  values_.clear();
}

void ByteCounter::add(TimeNs t, std::int64_t bytes) {
  total_ += bytes;
  // The sample is stamped at the bucket's last nanosecond, so a
  // bucket-aligned boundary B sees exactly the packets delivered before B
  // (their stamps are <= B-1) — the same answer per-add stamps would give.
  const TimeNs stamp = (t / kBucketWidth) * kBucketWidth + kBucketWidth - 1;
  if (!times_.empty() && stamp == times_.back()) {
    cumulative_.back() = total_;
    return;
  }
  NIMBUS_CHECK_MSG(times_.empty() || stamp >= times_.back(),
                   "ByteCounter samples must be time-ordered");
  times_.push_back(stamp);
  cumulative_.push_back(total_);
}

std::int64_t ByteCounter::bytes_in(TimeNs t0, TimeNs t1) const {
  if (times_.empty()) return 0;
  // Cumulative bytes strictly before t0 / t1.
  auto cum_before = [&](TimeNs t) -> std::int64_t {
    const auto it = std::lower_bound(times_.begin(), times_.end(), t);
    if (it == times_.begin()) return 0;
    return cumulative_[static_cast<std::size_t>(it - times_.begin()) - 1];
  };
  return cum_before(t1) - cum_before(t0);
}

double ByteCounter::rate_bps(TimeNs t0, TimeNs t1) const {
  if (t1 <= t0) return 0.0;
  return static_cast<double>(bytes_in(t0, t1)) * 8.0 / to_sec(t1 - t0);
}

std::vector<double> ByteCounter::bucket_rates_bps(TimeNs t0, TimeNs t1,
                                                  TimeNs dt) const {
  NIMBUS_CHECK(dt > 0 && t1 > t0);
  const auto n = static_cast<std::size_t>((t1 - t0 + dt - 1) / dt);
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const TimeNs lo = t0 + static_cast<TimeNs>(i) * dt;
    const TimeNs hi = std::min(lo + dt, t1);
    out[i] = rate_bps(lo, hi);
  }
  return out;
}

}  // namespace nimbus::util
