// Unit tests for util: time conversions, RNG, statistics, EWMA, windowed
// filters, time series, CSV formatting.
#include <cmath>

#include <gtest/gtest.h>

#include "oracles/exact_byte_counter.h"
#include "util/csv.h"
#include "util/ewma.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/timeseries.h"
#include "util/windowed_filter.h"

namespace nimbus {
namespace {

// --- time ---

TEST(TimeTest, Conversions) {
  EXPECT_EQ(from_sec(1.0), kNanosPerSec);
  EXPECT_EQ(from_ms(1.0), kNanosPerMs);
  EXPECT_DOUBLE_EQ(to_sec(kNanosPerSec), 1.0);
  EXPECT_DOUBLE_EQ(to_ms(kNanosPerMs), 1.0);
  EXPECT_EQ(from_ms(12.5), 12'500'000);
}

TEST(TimeTest, TxTime) {
  // 1500 bytes at 12 Mbit/s = 1 ms.
  EXPECT_EQ(tx_time(1500, 12e6), kNanosPerMs);
  // 1500 bytes at 96 Mbit/s = 125 us.
  EXPECT_EQ(tx_time(1500, 96e6), 125 * kNanosPerUs);
}

TEST(TimeTest, BytesIn) {
  EXPECT_DOUBLE_EQ(bytes_in(from_sec(1), 8e6), 1e6);
}

// --- rng ---

TEST(RngTest, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRange) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanCloseToHalf) {
  util::Rng rng(7);
  util::OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(RngTest, ExponentialMean) {
  util::Rng rng(11);
  util::OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(RngTest, ExponentialCoefficientOfVariation) {
  // Exponential has CV = 1; this distinguishes it from constant spacing.
  util::Rng rng(13);
  util::OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(1.0));
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  util::Rng rng(17);
  util::OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, BoundedParetoRange) {
  util::Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(RngTest, BoundedParetoHeavyTail) {
  // Most mass near the lower bound.
  util::Rng rng(23);
  int below_100 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.bounded_pareto(1.2, 10.0, 10000.0) < 100.0) ++below_100;
  }
  EXPECT_GT(below_100, n * 8 / 10);
}

TEST(RngTest, BernoulliProbability) {
  util::Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SplitStreamsIndependent) {
  util::Rng parent(37);
  util::Rng a = parent.split();
  util::Rng b = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

// --- stats ---

TEST(OnlineStatsTest, Basic) {
  util::OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  util::OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentilesTest, OrderStatistics) {
  util::Percentiles p;
  for (int i = 100; i >= 1; --i) p.add(i);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 100.0);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0.95), 95.05, 0.2);
}

// Regression (ISSUE 4): mean() silently returned 0.0 on an empty
// collection while percentile() CHECK-failed.  Both now share the
// CHECK-fail contract; callers gate on empty()/count() (summarize_flow
// already did).
TEST(PercentilesTest, EmptyQueriesCheckFail) {
  util::Percentiles p;
  EXPECT_TRUE(p.empty());
  EXPECT_DEATH(p.mean(), "NIMBUS_CHECK failed");
  EXPECT_DEATH(p.percentile(0.5), "NIMBUS_CHECK failed");
}

TEST(PercentilesTest, SingleSample) {
  util::Percentiles p;
  p.add(7.0);
  EXPECT_DOUBLE_EQ(p.median(), 7.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 7.0);
}

TEST(PercentilesTest, CdfMonotone) {
  util::Percentiles p;
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) p.add(rng.uniform());
  const auto cdf = p.cdf(11);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(JainFairnessTest, PerfectFairness) {
  EXPECT_DOUBLE_EQ(util::jain_fairness({5, 5, 5, 5}), 1.0);
}

TEST(JainFairnessTest, WorstCase) {
  // One flow hogging everything among n flows scores 1/n.
  EXPECT_NEAR(util::jain_fairness({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainFairnessTest, Intermediate) {
  const double j = util::jain_fairness({2, 1});
  EXPECT_GT(j, 0.5);
  EXPECT_LT(j, 1.0);
}

// --- ewma ---

TEST(TimeEwmaTest, StepResponseTimeConstant) {
  // After one time constant, response to a step is 1 - 1/e ~ 63%.
  util::TimeEwma e(1.0);  // tau = 1 s
  e.add(0, 0.0);
  TimeNs t = 0;
  for (int i = 0; i < 100; ++i) {
    t += from_ms(10);
    e.add(t, 1.0);
  }
  EXPECT_NEAR(e.value(), 1.0 - std::exp(-1.0), 0.02);
}

TEST(TimeEwmaTest, CutoffAttenuatesHighFrequency) {
  // A 5 Hz square wave through a 2 Hz low-pass should be strongly
  // attenuated relative to its input swing.
  util::TimeEwma e = util::TimeEwma::with_cutoff_hz(2.0);
  TimeNs t = 0;
  double mn = 1e9, mx = -1e9;
  for (int i = 0; i < 2000; ++i) {
    t += from_ms(1);
    const double phase = std::fmod(to_sec(t) * 5.0, 1.0);
    e.add(t, phase < 0.5 ? 0.0 : 1.0);
    if (i > 1000) {
      mn = std::min(mn, e.value());
      mx = std::max(mx, e.value());
    }
  }
  // Single-pole filter at 2 Hz attenuates the 5 Hz fundamental to ~37%;
  // with harmonics the residual swing stays well under the input's 1.0.
  EXPECT_LT(mx - mn, 0.65);
  EXPECT_GT(mx - mn, 0.1);  // but it is not a brick wall
}

// --- windowed filter ---

TEST(WindowedFilterTest, MaxTracksAndExpires) {
  util::WindowedMax f(from_sec(1));
  f.update(from_sec(0), 10.0);
  f.update(from_ms(500), 5.0);
  EXPECT_DOUBLE_EQ(f.get_unexpired(), 10.0);
  // At t=1.2 s the 10 (t=0) has left the 1 s window but the 5 remains.
  f.update(from_ms(1200), 1.0);
  EXPECT_DOUBLE_EQ(f.get_unexpired(), 5.0);
  // At t=2.5 s everything before t=1.5 s has expired.
  f.update(from_ms(2500), 2.0);
  EXPECT_DOUBLE_EQ(f.get_unexpired(), 2.0);
}

TEST(WindowedFilterTest, MinAgainstBruteForce) {
  util::WindowedMin f(from_ms(100));
  util::Rng rng(5);
  std::vector<std::pair<TimeNs, double>> samples;
  TimeNs t = 0;
  for (int i = 0; i < 1000; ++i) {
    t += from_ms(static_cast<double>(rng.uniform_int(1, 10)));
    const double v = rng.uniform(0, 100);
    f.update(t, v);
    samples.emplace_back(t, v);
    // Brute-force min over the window, over samples still in window at
    // insertion time.
    double expect = 1e18;
    for (const auto& [ts, vs] : samples) {
      if (ts + from_ms(100) >= t) expect = std::min(expect, vs);
    }
    EXPECT_DOUBLE_EQ(f.get_unexpired(), expect) << "at sample " << i;
  }
}

// --- timeseries ---

TEST(TimeSeriesTest, MeanInWindow) {
  util::TimeSeries ts;
  ts.add(from_sec(1), 1.0);
  ts.add(from_sec(2), 3.0);
  ts.add(from_sec(3), 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(from_sec(1), from_sec(3)).value(), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(from_sec(0), from_sec(10)).value(), 3.0);
}

// Regression (ISSUE 4): an empty window used to report 0.0 —
// indistinguishable from a genuine zero mean (benches averaging eta read
// "perfectly inelastic" where they had no data).  It is now nullopt.
TEST(TimeSeriesTest, MeanInEmptyWindowIsNullopt) {
  util::TimeSeries ts;
  EXPECT_FALSE(ts.mean_in(0, from_sec(1)).has_value());
  ts.add(from_sec(1), 4.0);
  ts.add(from_sec(2), 0.0);
  EXPECT_FALSE(ts.mean_in(from_sec(5), from_sec(10)).has_value());
  EXPECT_FALSE(ts.mean_in(from_sec(0), from_sec(1)).has_value());
  // A window holding a real zero-valued sample is a present 0.0, distinct
  // from the empty window above.
  EXPECT_DOUBLE_EQ(ts.mean_in(from_sec(2), from_sec(3)).value(), 0.0);
}

TEST(TimeSeriesTest, ResampleZeroOrderHold) {
  util::TimeSeries ts;
  ts.add(from_sec(1), 10.0);
  ts.add(from_sec(2), 20.0);
  const auto grid = ts.resample(from_sec(0), from_sec(1), 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid[0], 10.0);  // before first: hold first
  EXPECT_DOUBLE_EQ(grid[1], 10.0);
  EXPECT_DOUBLE_EQ(grid[2], 20.0);
  EXPECT_DOUBLE_EQ(grid[3], 20.0);
}

TEST(TimeSeriesTest, ValuesIn) {
  util::TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(from_sec(i), i);
  const auto v = ts.values_in(from_sec(3), from_sec(6));
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[2], 5.0);
}

TEST(ByteCounterTest, RatesAndWindows) {
  util::ByteCounter c;
  c.add(from_ms(100), 1000);
  c.add(from_ms(600), 1000);
  c.add(from_ms(1100), 2000);
  EXPECT_EQ(c.total(), 4000);
  EXPECT_EQ(c.bytes_in(0, from_sec(1)), 2000);
  // 2000 bytes over 1 s = 16 kbit/s.
  EXPECT_DOUBLE_EQ(c.rate_bps(0, from_sec(1)), 16000.0);
  const auto buckets = c.bucket_rates_bps(0, from_sec(2), from_sec(1));
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0], 16000.0);
  EXPECT_DOUBLE_EQ(buckets[1], 16000.0);
}

TEST(ByteCounterTest, EmptyIntervals) {
  util::ByteCounter c;
  EXPECT_EQ(c.bytes_in(0, from_sec(1)), 0);
  EXPECT_DOUBLE_EQ(c.rate_bps(0, from_sec(1)), 0.0);
}

// Adds inside one 1 ms bucket collapse into a single stored sample, and
// every bucket-aligned query answers exactly like the per-add oracle.
TEST(ByteCounterTest, BucketedMatchesExactOnAlignedQueries) {
  oracles::ExactByteCounter exact;
  util::ByteCounter bucketed;
  // Simulated packet arrivals at 125 us spacing across 40 ms, with a gap.
  std::vector<TimeNs> stamps;
  for (int i = 0; i < 160; ++i) stamps.push_back(i * from_ms(0.125));
  for (int i = 0; i < 80; ++i) {
    stamps.push_back(from_ms(30) + i * from_ms(0.125));
  }
  for (TimeNs t : stamps) {
    exact.add(t, 1500);
    bucketed.add(t, 1500);
  }
  EXPECT_EQ(bucketed.total(), exact.total());
  // ~8 adds per occupied millisecond collapse into one sample each.
  EXPECT_EQ(bucketed.samples(), 30u);
  EXPECT_EQ(exact.samples(), stamps.size());
  for (TimeNs t0 = 0; t0 <= from_ms(40); t0 += from_ms(1)) {
    for (TimeNs t1 = t0 + from_ms(1); t1 <= from_ms(40); t1 += from_ms(7)) {
      EXPECT_EQ(bucketed.bytes_in(t0, t1), exact.bytes_in(t0, t1));
      EXPECT_DOUBLE_EQ(bucketed.rate_bps(t0, t1), exact.rate_bps(t0, t1));
    }
  }
  const auto eb = exact.bucket_rates_bps(0, from_ms(40), from_ms(2));
  const auto bb = bucketed.bucket_rates_bps(0, from_ms(40), from_ms(2));
  ASSERT_EQ(eb.size(), bb.size());
  for (std::size_t i = 0; i < eb.size(); ++i) EXPECT_DOUBLE_EQ(bb[i], eb[i]);
}

// bench_micro's BM_DeliveryByteCounterBucketed workload (a 96 Mbit/s
// flow: 32768 adds at 125 us spacing, t = 0.125 ms .. 4096 ms) must store
// one sample per occupied 1 ms bucket — buckets 0..4096, so 4097 — not one
// per add.
TEST(ByteCounterTest, BenchWorkloadStoresOneSamplePerBucket) {
  util::ByteCounter c;
  TimeNs t = 0;
  for (int i = 0; i < 32768; ++i) {
    t += 125'000;
    c.add(t, 1500);
  }
  EXPECT_EQ(c.samples(), 4097u);
  EXPECT_EQ(c.total(), 32768 * 1500);
}

TEST(ByteCounterTest, BucketedStillRejectsTimeTravel) {
  util::ByteCounter c;
  c.add(from_ms(5), 100);
  c.add(from_ms(5) + 1, 100);  // same bucket: merges
  EXPECT_EQ(c.samples(), 1u);
  EXPECT_DEATH(c.add(from_ms(3), 100), "time-ordered");
}

// --- csv ---

TEST(CsvTest, FormatNum) {
  EXPECT_EQ(util::format_num(1.5), "1.5");
  EXPECT_EQ(util::format_num(1000000.0), "1e+06");
  EXPECT_EQ(util::format_num(0.0), "0");
}

}  // namespace
}  // namespace nimbus
