#include "sim/link_schedule.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace nimbus::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;

class ConstantSchedule final : public RateSchedule {
 public:
  explicit ConstantSchedule(double rate_bps) : rate_bps_(rate_bps) {
    NIMBUS_CHECK_MSG(rate_bps_ > 0, "constant schedule rate must be > 0");
  }
  double rate_at(TimeNs) const override { return rate_bps_; }
  TimeNs next_change_after(TimeNs) const override { return kNoChange; }
  double mean_rate_bps() const override { return rate_bps_; }

 private:
  double rate_bps_;
};

class StepsSchedule final : public RateSchedule {
 public:
  StepsSchedule(double initial_rate_bps, std::vector<RateStep> steps)
      : initial_(initial_rate_bps), steps_(std::move(steps)) {
    NIMBUS_CHECK_MSG(initial_ > 0, "steps schedule initial rate must be > 0");
    TimeNs prev = -1;
    for (const RateStep& s : steps_) {
      NIMBUS_CHECK_MSG(s.at > prev,
                       "steps schedule breakpoints must strictly increase");
      NIMBUS_CHECK_MSG(s.rate_bps > 0, "steps schedule rates must be > 0");
      prev = s.at;
    }
  }

  double rate_at(TimeNs t) const override {
    // Last breakpoint with at <= t.
    double rate = initial_;
    for (const RateStep& s : steps_) {
      if (s.at > t) break;
      rate = s.rate_bps;
    }
    return rate;
  }

  TimeNs next_change_after(TimeNs t) const override {
    for (const RateStep& s : steps_) {
      if (s.at > t) return s.at;
    }
    return kNoChange;
  }

  double mean_rate_bps() const override { return initial_; }

 private:
  double initial_;
  std::vector<RateStep> steps_;
};

class SineSchedule final : public RateSchedule {
 public:
  SineSchedule(double mean_bps, double amplitude_frac, TimeNs period,
               TimeNs quantum)
      : mean_(mean_bps), amp_(amplitude_frac), period_(period),
        quantum_(quantum) {
    NIMBUS_CHECK_MSG(mean_ > 0, "sine schedule mean must be > 0");
    NIMBUS_CHECK_MSG(amp_ >= 0.0 && amp_ < 1.0,
                     "sine amplitude fraction must be in [0, 1)");
    NIMBUS_CHECK_MSG(period_ > 0 && quantum_ > 0,
                     "sine period and quantum must be > 0");
  }

  double rate_at(TimeNs t) const override {
    const TimeNs q = (t / quantum_) * quantum_;
    const double phase = 2.0 * kPi * to_sec(q % period_) / to_sec(period_);
    return mean_ * (1.0 + amp_ * std::sin(phase));
  }

  TimeNs next_change_after(TimeNs t) const override {
    if (amp_ == 0.0) return kNoChange;
    return (t / quantum_ + 1) * quantum_;
  }

  double mean_rate_bps() const override { return mean_; }

 private:
  double mean_, amp_;
  TimeNs period_, quantum_;
};

class RandomWalkSchedule final : public RateSchedule {
 public:
  RandomWalkSchedule(double mean_bps, double amplitude_frac,
                     TimeNs step_interval, double step_frac,
                     std::uint64_t seed)
      : mean_(mean_bps), lo_(mean_bps * (1.0 - amplitude_frac)),
        hi_(mean_bps * (1.0 + amplitude_frac)), interval_(step_interval),
        step_frac_(step_frac), rng_(seed) {
    NIMBUS_CHECK_MSG(mean_ > 0, "random walk mean must be > 0");
    NIMBUS_CHECK_MSG(amplitude_frac >= 0.0 && amplitude_frac < 1.0,
                     "random walk amplitude fraction must be in [0, 1)");
    NIMBUS_CHECK_MSG(interval_ > 0, "random walk step interval must be > 0");
    NIMBUS_CHECK_MSG(step_frac_ >= 0.0, "random walk step fraction >= 0");
    rates_.push_back(mean_);
  }

  double rate_at(TimeNs t) const override {
    const std::size_t idx = static_cast<std::size_t>(t / interval_);
    materialize(idx);
    return rates_[idx];
  }

  TimeNs next_change_after(TimeNs t) const override {
    if (lo_ == hi_ || step_frac_ == 0.0) return kNoChange;
    return (t / interval_ + 1) * interval_;
  }

  double mean_rate_bps() const override { return mean_; }

 private:
  // The walk is generated once, in step order, and memoised: querying
  // rate_at out of order (ground-truth scoring after the run) replays the
  // identical trajectory the link saw.
  void materialize(std::size_t idx) const {
    while (rates_.size() <= idx) {
      const double step = rng_.uniform(-step_frac_, step_frac_) * mean_;
      rates_.push_back(std::clamp(rates_.back() + step, lo_, hi_));
    }
  }

  double mean_, lo_, hi_;
  TimeNs interval_;
  double step_frac_;
  mutable util::Rng rng_;
  mutable std::vector<double> rates_;
};

/// Bytes one trace delivery opportunity carries (Mahimahi's default MTU).
constexpr std::int64_t kTraceBytesPerOpportunity = 1504;

class TraceSchedule final : public RateSchedule {
 public:
  TraceSchedule(const std::vector<std::int64_t>& opportunities_ms,
                TimeNs bucket, const std::string& origin)
      : bucket_(bucket) {
    NIMBUS_CHECK_MSG(!opportunities_ms.empty(),
                     ("empty trace: " + origin).c_str());
    NIMBUS_CHECK_MSG(bucket_ > 0, "trace bucket must be > 0");
    // Validate before any ms -> ns multiply: a timestamp past what TimeNs
    // holds (with room to round the period up to a whole bucket) would
    // overflow, which is undefined behaviour.
    const std::int64_t max_ms =
        (std::numeric_limits<TimeNs>::max() - bucket_) / kNanosPerMs;
    std::int64_t prev = 0;
    for (std::int64_t ms : opportunities_ms) {
      NIMBUS_CHECK_MSG(ms >= prev,
                       ("trace timestamps must be non-decreasing: " + origin)
                           .c_str());
      NIMBUS_CHECK_MSG(ms <= max_ms,
                       ("trace timestamp too large for the simulator "
                        "clock: " + origin).c_str());
      prev = ms;
    }
    const std::int64_t last_ms = opportunities_ms.back();
    NIMBUS_CHECK_MSG(last_ms > 0,
                     ("trace looping period is zero (last timestamp must "
                      "be > 0): " + origin).c_str());
    // Mahimahi semantics: the final timestamp is the looping period.  We
    // round the period up to a whole number of buckets and fold every
    // opportunity in by `time mod period` (an opportunity at exactly the
    // period lands at the start of the next cycle).
    const TimeNs last = last_ms * kNanosPerMs;
    period_ = ((last + bucket_ - 1) / bucket_) * bucket_;
    std::vector<std::int64_t> counts(
        static_cast<std::size_t>(period_ / bucket_), 0);
    for (std::int64_t ms : opportunities_ms) {
      const TimeNs t = (ms * kNanosPerMs) % period_;
      counts[static_cast<std::size_t>(t / bucket_)]++;
    }
    const double opp_bits =
        static_cast<double>(kTraceBytesPerOpportunity) * 8.0;
    const double bucket_sec = to_sec(bucket_);
    // Floor: one opportunity per bucket, so a trace outage slows the link
    // to ~1 MTU per bucket instead of dividing by zero / stalling.
    const double floor_bps = opp_bits / bucket_sec;
    double sum = 0.0;
    rates_.reserve(counts.size());
    for (std::int64_t c : counts) {
      const double r = std::max(
          static_cast<double>(c) * opp_bits / bucket_sec, floor_bps);
      rates_.push_back(r);
      sum += r;
    }
    mean_ = sum / static_cast<double>(rates_.size());
  }

  double rate_at(TimeNs t) const override {
    const TimeNs w = t % period_;
    return rates_[static_cast<std::size_t>(w / bucket_)];
  }

  TimeNs next_change_after(TimeNs t) const override {
    if (rates_.size() == 1) return kNoChange;
    return (t / bucket_ + 1) * bucket_;
  }

  double mean_rate_bps() const override { return mean_; }

 private:
  TimeNs bucket_;
  TimeNs period_ = 0;
  std::vector<double> rates_;  // one per bucket across the loop period
  double mean_ = 0.0;
};

}  // namespace

std::unique_ptr<RateSchedule> RateSchedule::constant(double rate_bps) {
  return std::make_unique<ConstantSchedule>(rate_bps);
}

std::unique_ptr<RateSchedule> RateSchedule::steps(
    double initial_rate_bps, std::vector<RateStep> steps) {
  return std::make_unique<StepsSchedule>(initial_rate_bps, std::move(steps));
}

std::unique_ptr<RateSchedule> RateSchedule::sine(double mean_bps,
                                                 double amplitude_frac,
                                                 TimeNs period,
                                                 TimeNs quantum) {
  return std::make_unique<SineSchedule>(mean_bps, amplitude_frac, period,
                                        quantum);
}

std::unique_ptr<RateSchedule> RateSchedule::random_walk(
    double mean_bps, double amplitude_frac, TimeNs step_interval,
    double step_frac, std::uint64_t seed) {
  return std::make_unique<RandomWalkSchedule>(mean_bps, amplitude_frac,
                                              step_interval, step_frac, seed);
}

std::unique_ptr<RateSchedule> RateSchedule::from_trace_ms(
    const std::vector<std::int64_t>& opportunities_ms, TimeNs bucket,
    const std::string& origin) {
  return std::make_unique<TraceSchedule>(opportunities_ms, bucket, origin);
}

std::unique_ptr<RateSchedule> RateSchedule::from_trace_file(
    const std::string& path, TimeNs bucket) {
  return from_trace_ms(parse_trace_file(path), bucket, path);
}

std::vector<std::int64_t> parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  NIMBUS_CHECK_MSG(in.good(), ("cannot open trace file: " + path).c_str());
  std::vector<std::int64_t> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing CR (traces edited on other platforms) and whitespace.
    std::size_t end = line.size();
    while (end > 0 && std::isspace(static_cast<unsigned char>(line[end - 1]))) {
      --end;
    }
    std::size_t begin = 0;
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(line[begin]))) {
      ++begin;
    }
    if (begin == end || line[begin] == '#') continue;
    std::int64_t ms = 0;
    bool ok = true;
    for (std::size_t i = begin; i < end; ++i) {
      const char c = line[i];
      if (c < '0' || c > '9') {
        ok = false;
        break;
      }
      // Overflow guard before the multiply (post-hoc sign checks are UB
      // and can wrap back to an accepted positive value).
      if (ms > (std::numeric_limits<std::int64_t>::max() - 9) / 10) {
        ok = false;
        break;
      }
      ms = ms * 10 + (c - '0');
    }
    if (!ok) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "malformed trace line %zu in %s: expected a "
                    "non-negative integer millisecond timestamp",
                    lineno, path.c_str());
      NIMBUS_CHECK_MSG(false, msg);
    }
    NIMBUS_CHECK_MSG(out.empty() || ms >= out.back(),
                     ("trace timestamps must be non-decreasing: " + path)
                         .c_str());
    out.push_back(ms);
  }
  NIMBUS_CHECK_MSG(!out.empty(), ("empty trace: " + path).c_str());
  return out;
}

}  // namespace nimbus::sim
