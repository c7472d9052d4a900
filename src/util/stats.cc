#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nimbus::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void Percentiles::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void Percentiles::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Percentiles::percentile(double p) const {
  NIMBUS_CHECK(!samples_.empty());
  NIMBUS_CHECK(p >= 0.0 && p <= 1.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Percentiles::mean() const {
  NIMBUS_CHECK(!samples_.empty());
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Percentiles::cdf(
    std::size_t n_points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || n_points < 2) return out;
  out.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double p =
        static_cast<double>(i) / static_cast<double>(n_points - 1);
    out.emplace_back(percentile(p), p);
  }
  return out;
}

double jain_fairness(const std::vector<double>& allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace nimbus::util
