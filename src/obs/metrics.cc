#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nimbus::obs {
namespace {

[[noreturn]] void slots_exhausted(const char* kind) {
  std::fprintf(stderr, "obs: MetricsRegistry out of %s slots\n", kind);
  std::abort();
}

std::size_t find_name(const std::vector<std::string>& names,
                      const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  std::memset(counters_, 0, sizeof(counters_));
  std::memset(hist_buckets_, 0, sizeof(hist_buckets_));
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::size_t i = find_name(counter_names_, name);
  if (i == counter_names_.size()) {
    if (i >= kMaxCounters) slots_exhausted("counter");
    counter_names_.push_back(name);
  }
  return Counter{&counters_[i]};
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  std::size_t i = find_name(histogram_names_, name);
  if (i == histogram_names_.size()) {
    if (i >= kMaxHistograms) slots_exhausted("histogram");
    histogram_names_.push_back(name);
  }
  return Histogram{&hist_buckets_[i * Histogram::kBuckets]};
}

std::vector<std::pair<std::string, double>> MetricsRegistry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counter_names_.size() + histogram_names_.size() * 4);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    out.emplace_back(counter_names_[i], static_cast<double>(counters_[i]));
  }
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    const std::uint64_t* b = &hist_buckets_[i * Histogram::kBuckets];
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
      if (b[k] == 0) continue;
      total += b[k];
      char key[96];
      std::snprintf(key, sizeof(key), "%s.p2_%zu", histogram_names_[i].c_str(),
                    k);
      out.emplace_back(key, static_cast<double>(b[k]));
    }
    out.emplace_back(histogram_names_[i] + ".count",
                     static_cast<double>(total));
  }
  return out;
}

}  // namespace nimbus::obs
