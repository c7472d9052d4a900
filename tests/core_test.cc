// Tests for the core building blocks: the asymmetric pulse, the
// cross-traffic and bottleneck-rate estimators, the elasticity detector,
// and the BasicDelay rate rule.
#include <cmath>

#include <gtest/gtest.h>

#include "core/basic_delay.h"
#include "core/elasticity.h"
#include "core/estimators.h"
#include "core/pulse.h"
#include "oracles/dominant_frequency.h"
#include "oracles/reference_detector.h"
#include "util/rng.h"

namespace nimbus::core {
namespace {

constexpr double kMu = 96e6;

// ---------- pulse ----------

TEST(PulseTest, ZeroMeanOverPeriod) {
  AsymmetricPulse p;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += p.offset_bps(p.period() * i / n, kMu);
  }
  EXPECT_NEAR(sum / n / kMu, 0.0, 1e-4);
}

TEST(PulseTest, ShapeMatchesFigure7) {
  // +A half-sine for T/4 (peak A at T/8), -A/3 half-sine after (trough
  // -A/3 at 5T/8).
  AsymmetricPulse p;
  const double amp = 0.25 * kMu;
  EXPECT_NEAR(p.offset_bps(p.period() / 8, kMu), amp, 1.0);
  EXPECT_NEAR(p.offset_bps(p.period() * 5 / 8, kMu), -amp / 3.0, 1.0);
  EXPECT_NEAR(p.offset_bps(0, kMu), 0.0, 1e3);
  EXPECT_NEAR(p.offset_bps(p.period() / 4, kMu), 0.0, 1e3);
}

TEST(PulseTest, PositiveForFirstQuarterNegativeAfter) {
  AsymmetricPulse p;
  for (int i = 1; i < 25; ++i) {
    EXPECT_GT(p.offset_bps(p.period() * i / 100, kMu), 0.0) << i;
  }
  for (int i = 26; i < 100; ++i) {
    EXPECT_LE(p.offset_bps(p.period() * i / 100, kMu), 1.0) << i;
  }
}

TEST(PulseTest, MinBaseRateIsTroughAmplitude) {
  AsymmetricPulse p({5.0, 0.25});
  EXPECT_NEAR(p.min_base_rate(kMu), kMu / 12.0, 1.0);
}

TEST(PulseTest, BurstBytesMatchesPaperFormula) {
  // Section 3.4: burst = mu*T/(8*pi) bits ~ 0.04*mu*T; in bytes /8.
  AsymmetricPulse p({5.0, 0.25});
  const double t = 0.2;
  EXPECT_NEAR(p.burst_bytes(kMu), kMu * t / (8.0 * M_PI) / 8.0,
              p.burst_bytes(kMu) * 1e-9);
}

TEST(PulseTest, CumulativeBytesRisesThenReturnsToZero) {
  AsymmetricPulse p;
  const double burst = p.burst_bytes(kMu);
  EXPECT_NEAR(p.cumulative_bytes(p.period() / 4, kMu), burst, burst * 1e-6);
  EXPECT_NEAR(p.cumulative_bytes(p.period() - 1, kMu), 0.0, burst * 1e-3);
  // Monotone rise over the first quarter.
  double prev = -1;
  for (int i = 0; i <= 25; ++i) {
    const double c = p.cumulative_bytes(p.period() * i / 100, kMu);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(PulseTest, FrequencyChange) {
  AsymmetricPulse p({5.0, 0.25});
  EXPECT_EQ(p.period(), from_ms(200));
  p.set_frequency_hz(6.0);
  EXPECT_NEAR(to_ms(p.period()), 1000.0 / 6.0, 0.01);
}

TEST(PulseTest, AmplitudeScalesWithMu) {
  AsymmetricPulse p({5.0, 0.125});
  EXPECT_NEAR(p.offset_bps(p.period() / 8, kMu), 0.125 * kMu, 1.0);
  EXPECT_NEAR(p.offset_bps(p.period() / 8, kMu / 2), 0.125 * kMu / 2, 1.0);
}

// ---------- estimators ----------

TEST(CrossRateEstimatorTest, ExactWhenQueueBusy) {
  // R = mu * S/(S+z)  =>  estimate recovers z exactly.
  const double s = 30e6, z = 50e6;
  const double r = kMu * s / (s + z);
  EXPECT_NEAR(estimate_cross_rate(kMu, s, r), z, 1.0);
}

TEST(CrossRateEstimatorTest, ZeroCrossTraffic) {
  EXPECT_NEAR(estimate_cross_rate(kMu, 50e6, 50e6), kMu - 50e6, 1.0);
  // When alone at full rate, z = 0.
  EXPECT_NEAR(estimate_cross_rate(kMu, kMu, kMu), 0.0, 1.0);
}

TEST(CrossRateEstimatorTest, ClampsNegative) {
  // mu*S/R - S = 96*50/60 - 50 = 30 Mbit/s.
  EXPECT_NEAR(estimate_cross_rate(kMu, 50e6, 60e6), 30e6, 1.0);
  // R > the busy-queue ideal (measurement noise) would give z < 0: clamp.
  EXPECT_DOUBLE_EQ(estimate_cross_rate(kMu, 90e6, 97e6), 0.0);
}

TEST(CrossRateEstimatorTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(estimate_cross_rate(0, 1e6, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(estimate_cross_rate(kMu, 0, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(estimate_cross_rate(kMu, 1e6, 0), 0.0);
}

TEST(MuEstimatorTest, TracksMaxReceiveRate) {
  MuEstimator est(from_sec(10));
  est.on_receive_rate(from_sec(1), 40e6);
  est.on_receive_rate(from_sec(2), 90e6);
  est.on_receive_rate(from_sec(3), 60e6);
  EXPECT_DOUBLE_EQ(est.mu_bps(), 90e6);
}

TEST(MuEstimatorTest, OldPeaksExpire) {
  MuEstimator est(from_sec(5));
  est.on_receive_rate(from_sec(1), 90e6);
  est.on_receive_rate(from_sec(8), 60e6);
  EXPECT_DOUBLE_EQ(est.mu_bps(), 60e6);
}

// ---------- sliding signal & detector ----------

TEST(SlidingSignalTest, CapacityAndOrder) {
  oracles::SlidingSignal s(3);
  s.add(1);
  s.add(2);
  EXPECT_FALSE(s.full());
  s.add(3);
  EXPECT_TRUE(s.full());
  s.add(4);
  const auto v = s.snapshot();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 2);
  EXPECT_DOUBLE_EQ(v[2], 4);
}

class DetectorFixture : public ::testing::Test {
 protected:
  // Fills the detector with z(t) = mean + amp*sin(2*pi*f*t) + noise.
  void fill(ElasticityDetector& det, double f_hz, double amp_bps,
            double noise_bps, std::uint64_t seed = 11) {
    util::Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      const double t = i / 100.0;
      det.add_sample(40e6 + amp_bps * std::sin(2 * M_PI * f_hz * t) +
                     rng.normal(0, noise_bps));
    }
  }
};

TEST_F(DetectorFixture, ElasticResponseDetected) {
  ElasticityDetector det;
  fill(det, 5.0, 5e6, 1e6);
  ASSERT_TRUE(det.ready());
  const auto r = det.evaluate(5.0);
  EXPECT_TRUE(r.valid);
  EXPECT_GT(r.eta, 2.0);
  EXPECT_TRUE(r.elastic);
}

TEST_F(DetectorFixture, NoiseOnlyIsInelastic) {
  ElasticityDetector det;
  fill(det, 5.0, 0.0, 3e6);
  const auto r = det.evaluate(5.0);
  EXPECT_LT(r.eta, 2.0);
  EXPECT_FALSE(r.elastic);
}

TEST_F(DetectorFixture, ResponseAtWrongFrequencyRejected) {
  // Oscillation at 7 Hz (inside the comparison band) must *suppress* eta.
  ElasticityDetector det;
  fill(det, 7.0, 5e6, 1e6);
  const auto r = det.evaluate(5.0);
  EXPECT_LT(r.eta, 1.0);
}

TEST_F(DetectorFixture, NotReadyUntilWindowFull) {
  ElasticityDetector det;
  for (int i = 0; i < 499; ++i) det.add_sample(1.0);
  EXPECT_FALSE(det.ready());
  EXPECT_FALSE(det.evaluate(5.0).valid);
  det.add_sample(1.0);
  EXPECT_TRUE(det.ready());
}

TEST_F(DetectorFixture, ResetClearsWindow) {
  ElasticityDetector det;
  fill(det, 5.0, 5e6, 1e6);
  det.reset();
  EXPECT_FALSE(det.ready());
}

TEST_F(DetectorFixture, SixHertzDetection) {
  // The multiflow delay-mode frequency also lands on an exact bin (30).
  ElasticityDetector det;
  fill(det, 6.0, 5e6, 1e6);
  EXPECT_GT(det.evaluate(6.0).eta, 2.0);
  EXPECT_LT(det.evaluate(5.0).eta, 1.0);  // 6 Hz pollutes the 5 Hz band
}

TEST_F(DetectorFixture, EtaScalesWithElasticFraction) {
  // More elastic response -> larger eta (monotone in amplitude).
  double last = 0;
  for (double amp : {1e6, 3e6, 9e6}) {
    ElasticityDetector det;
    fill(det, 5.0, amp, 2e6, 17);
    const double eta = det.evaluate(5.0).eta;
    EXPECT_GT(eta, last);
    last = eta;
  }
}

TEST_F(DetectorFixture, MagnitudeNearPicksPeak) {
  ElasticityDetector det;
  fill(det, 5.0, 8e6, 0.1e6);
  // Hann window halves the amplitude.
  EXPECT_NEAR(det.magnitude_near(5.0), 8e6 / 2 / 2, 0.4e6);
  EXPECT_LT(det.magnitude_near(8.0), 0.2e6);
}

TEST_F(DetectorFixture, FullSpectrumExposesPeak) {
  ElasticityDetector det;
  fill(det, 5.0, 8e6, 0.5e6);
  const auto spec = det.full_spectrum();
  EXPECT_NEAR(oracles::dominant_frequency(spec), 5.0, 0.21);
}

TEST_F(DetectorFixture, EvaluateBandOverFullSpectrumMatchesEvaluate) {
  // There is one Eq. 3: bench_fig05 scores full_spectrum() with
  // evaluate_band, so on the same window that must agree with the
  // detector's own sliding-DFT evaluate() at both tracked frequencies.
  for (double amp : {5e6, 0.0}) {  // 5 Hz-pulsed signal, then noise only
    ElasticityDetector det;
    fill(det, 5.0, amp, 1e6);
    const spectral::Spectrum spec = det.full_spectrum();
    for (double f : {5.0, 6.0}) {
      const DetectorResult r = det.evaluate(f);
      const DetectorResult s = evaluate_band(
          det.config(), det.window_samples(), f,
          [&spec](std::size_t k) { return spec.magnitude[k]; });
      ASSERT_TRUE(r.valid);
      EXPECT_EQ(s.band_max_bin, r.band_max_bin) << "amp " << amp << " f " << f;
      EXPECT_NEAR(s.eta, r.eta, 1e-9 * r.eta) << "amp " << amp << " f " << f;
    }
  }
}

// ---------- BasicDelay rule ----------

TEST(BasicDelayCoreTest, ClaimsSpareCapacity) {
  BasicDelayCore bd;
  bd.init(10e6);
  // No cross traffic, RTT at minimum: rate should jump toward mu.
  const double r = bd.update(10e6, 0.0, kMu, from_ms(50), from_ms(50));
  // S + alpha*(mu - S) + beta*mu/x*dt with dt = target: positive boost.
  EXPECT_GT(r, 0.8 * kMu);
}

TEST(BasicDelayCoreTest, BacksOffAboveTargetDelay) {
  BasicDelayCore bd;
  bd.init(kMu);
  // Queue delay 50 ms over a 12.5 ms target: strong negative delay term.
  const double r = bd.update(kMu, 0.0, kMu, from_ms(100), from_ms(50));
  EXPECT_LT(r, kMu * 0.9);
}

TEST(BasicDelayCoreTest, EquilibriumAtTarget) {
  // At S = mu - z and x = xmin + dt the rate should be S (fixed point).
  BasicDelayCore bd;
  bd.init(48e6);
  const double s = 48e6, z = kMu - s;
  const double r = bd.update(
      s, z, kMu, from_ms(50) + BasicDelayCore::kTargetDelay, from_ms(50));
  EXPECT_NEAR(r, s, 1e3);
}

TEST(BasicDelayCoreTest, RespectsMinRateAndMuClamp) {
  BasicDelayCore bd;
  bd.init(1e6);
  // Massive over-delay: clamped at min rate.
  const double lo = bd.update(1e6, 90e6, kMu, from_ms(500), from_ms(50));
  EXPECT_GE(lo, BasicDelayCore::kMinRateBps);
  // Massive spare capacity claim: clamped at 1.25*mu (transient
  // overshoot allowed so the queue can build toward the target).
  bd.init(kMu);
  const double hi = bd.update(kMu, 0.0, kMu, from_ms(50), from_ms(50));
  EXPECT_LE(hi, 1.25 * kMu);
}

}  // namespace
}  // namespace nimbus::core
