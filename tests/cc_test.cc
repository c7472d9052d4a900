// Behavioral tests for the congestion-control algorithms: window dynamics,
// steady-state throughput/delay signatures, fairness, and the properties
// the paper's experiments rely on.
#include <gtest/gtest.h>

#include "cc/bbr.h"
#include "cc/compound.h"
#include "cc/copa.h"
#include "cc/cubic.h"
#include "cc/reno.h"
#include "cc/vegas.h"
#include "cc/vivace.h"
#include "exp/schemes.h"
#include "exp/summary.h"
#include "sim/network.h"
#include "traffic/raw_sources.h"

namespace nimbus {
namespace {

using cc::CubicCore;
using cc::RenoCore;
using cc::VegasCore;

// ---------- window-core unit tests ----------

TEST(RenoCoreTest, SlowStartDoublesPerRtt) {
  RenoCore c;
  c.init(10);
  // One RTT worth of ACKs: each acked packet adds one.
  for (int i = 0; i < 10; ++i) c.on_ack(1.0);
  EXPECT_DOUBLE_EQ(c.cwnd_pkts(), 20.0);
}

TEST(RenoCoreTest, CongestionAvoidanceOnePacketPerRtt) {
  RenoCore c;
  c.init(10);
  c.on_congestion_event();  // leave slow start (ssthresh = 5)
  const double w0 = c.cwnd_pkts();
  for (int i = 0; i < static_cast<int>(w0); ++i) c.on_ack(1.0);
  EXPECT_NEAR(c.cwnd_pkts(), w0 + 1.0, 0.1);
}

TEST(RenoCoreTest, MultiplicativeDecrease) {
  RenoCore c;
  c.init(100);
  c.on_congestion_event();
  EXPECT_DOUBLE_EQ(c.cwnd_pkts(), 50.0);
}

TEST(RenoCoreTest, RtoCollapsesToOne) {
  RenoCore c;
  c.init(100);
  c.on_rto();
  EXPECT_DOUBLE_EQ(c.cwnd_pkts(), 1.0);
  EXPECT_DOUBLE_EQ(c.ssthresh_pkts(), 50.0);
}

TEST(CubicCoreTest, BetaReductionIsPointSeven) {
  CubicCore c;
  c.init(100);
  c.on_congestion_event(from_sec(1));
  EXPECT_NEAR(c.cwnd_pkts(), 70.0, 1e-9);
}

TEST(CubicCoreTest, WindowFollowsCubicCurve) {
  // After a loss at w=100, growth follows C*(t-K)^3 + w_max: flat near K,
  // accelerating beyond.  The TCP-friendly region is always on; both
  // probes still hold with it (cwnd ~94.2 at t=2 s, ~215 at t=11 s).
  CubicCore c;
  c.init(100);
  TimeNs now = from_sec(10);
  c.on_congestion_event(now);
  const TimeNs srtt = from_ms(50);
  // Drive ACKs for 12 simulated seconds.
  std::vector<std::pair<double, double>> curve;  // (t, cwnd)
  for (int tick = 0; tick < 1200; ++tick) {
    now += from_ms(10);
    c.on_ack(now, srtt, c.cwnd_pkts() / 5.0 / 100.0 * 20);  // approx pacing
    if (tick % 100 == 0) curve.emplace_back(to_sec(now - from_sec(10)), c.cwnd_pkts());
  }
  // K = cbrt(100*0.3/0.4) ~ 4.2 s: window near w_max around K, above after.
  EXPECT_LT(curve[2].second, 100.0);   // t=2 s: still below w_max
  EXPECT_GT(curve.back().second, 105.0);  // t=11 s: past w_max and growing
}

TEST(CubicCoreTest, FastConvergenceLowersWmax) {
  CubicCore c;
  c.init(100);
  c.on_congestion_event(from_sec(1));  // w_max=100, cwnd=70
  c.on_congestion_event(from_sec(2));  // cwnd(70) < w_max(100) -> w_max=45.5
  EXPECT_NEAR(c.w_max(), 70.0 * 1.3 / 2.0, 1e-9);
}

TEST(VegasCoreTest, HoldsQueueBetweenAlphaAndBeta) {
  // Synthetic RTT loop: rtt grows linearly with cwnd beyond BDP.
  VegasCore v;
  v.init(2);
  const TimeNs base = from_ms(50);
  const double bdp_pkts = 40;
  TimeNs now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += from_ms(10);
    const double queued = std::max(v.cwnd_pkts() - bdp_pkts, 0.0);
    const TimeNs rtt = base + from_ms(queued * 1.0);  // 1 ms per queued pkt
    v.on_ack(now, rtt, base, 1.0);
  }
  const double diff = v.cwnd_pkts() - bdp_pkts;
  EXPECT_GE(diff, 1.0);
  EXPECT_LE(diff, 6.0);
}

// ---------- end-to-end single-flow signatures ----------

struct SoloResult {
  double rate_mbps;
  double mean_qdelay_ms;
  double util;
};

SoloResult run_solo(const std::string& scheme, double mu = 48e6,
                    TimeNs rtt = from_ms(50), double buf_bdp = 2.0,
                    TimeNs dur = from_sec(30)) {
  sim::Network net(mu, sim::buffer_bytes_for_bdp(mu, rtt, buf_bdp));
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = rtt;
  net.add_flow(fc, exp::make_scheme(scheme, mu));
  net.run_until(dur);
  SoloResult r;
  r.rate_mbps =
      net.recorder().delivered(1).rate_bps(from_sec(10), dur) / 1e6;
  r.mean_qdelay_ms =
      net.recorder().probed_queue_delay().mean_in(from_sec(10), dur).value();
  r.util = net.link().utilization();
  return r;
}

class SoloSchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SoloSchemeTest, AchievesHighUtilizationAlone) {
  const auto r = run_solo(GetParam());
  EXPECT_GT(r.rate_mbps, 40.0) << GetParam();  // >83% of 48 Mbit/s
}

INSTANTIATE_TEST_SUITE_P(Schemes, SoloSchemeTest,
                         ::testing::Values("cubic", "newreno", "vegas",
                                           "compound", "bbr", "copa",
                                           "vivace", "basic-delay", "nimbus"));

TEST(SchemeSignatureTest, LossBasedFillsBufferDelayBasedDoesNot) {
  const auto cubic = run_solo("cubic");
  const auto vegas = run_solo("vegas");
  const auto copa = run_solo("copa");
  const auto bd = run_solo("basic-delay");
  // Cubic fills the 100 ms buffer; delay-based schemes keep queues small.
  EXPECT_GT(cubic.mean_qdelay_ms, 50.0);
  EXPECT_LT(vegas.mean_qdelay_ms, 20.0);
  EXPECT_LT(copa.mean_qdelay_ms, 25.0);
  EXPECT_LT(bd.mean_qdelay_ms, 20.0);
}

TEST(SchemeSignatureTest, BasicDelayHitsDelayTarget) {
  // BasicDelay servos the queue to d_t = 12.5 ms (within a few ms).
  const auto bd = run_solo("basic-delay");
  EXPECT_GT(bd.mean_qdelay_ms, 2.0);
  EXPECT_LT(bd.mean_qdelay_ms, 20.0);
  EXPECT_GT(bd.rate_mbps, 43.0);
}

TEST(SchemeSignatureTest, BbrKeepsBoundedQueue) {
  const auto bbr = run_solo("bbr");
  // BBR's inflight cap (2 BDP) bounds queueing around 1 BDP (50 ms).
  EXPECT_LT(bbr.mean_qdelay_ms, 75.0);
  EXPECT_GT(bbr.rate_mbps, 42.0);
}

// ---------- pairwise competition ----------

struct PairResult {
  double a_mbps;
  double b_mbps;
};

PairResult run_pair(const std::string& a, const std::string& b,
                    double mu = 96e6, TimeNs rtt = from_ms(50),
                    double buf_bdp = 2.0, TimeNs dur = from_sec(60)) {
  sim::Network net(mu, sim::buffer_bytes_for_bdp(mu, rtt, buf_bdp));
  sim::TransportFlow::Config fa;
  fa.id = 1;
  fa.rtt_prop = rtt;
  fa.seed = 11;
  net.add_flow(fa, exp::make_scheme(a, mu));
  sim::TransportFlow::Config fb;
  fb.id = 2;
  fb.rtt_prop = rtt;
  fb.seed = 22;
  net.add_flow(fb, exp::make_scheme(b, mu));
  net.run_until(dur);
  PairResult r;
  r.a_mbps = net.recorder().delivered(1).rate_bps(from_sec(20), dur) / 1e6;
  r.b_mbps = net.recorder().delivered(2).rate_bps(from_sec(20), dur) / 1e6;
  return r;
}

TEST(CompetitionTest, CubicVsCubicIsFair) {
  const auto r = run_pair("cubic", "cubic");
  EXPECT_GT(util::jain_fairness({r.a_mbps, r.b_mbps}), 0.85);
  EXPECT_NEAR(r.a_mbps + r.b_mbps, 96.0, 10.0);
}

TEST(CompetitionTest, RenoVsRenoIsFair) {
  const auto r = run_pair("newreno", "newreno");
  EXPECT_GT(util::jain_fairness({r.a_mbps, r.b_mbps}), 0.85);
}

TEST(CompetitionTest, VegasLosesToCubic) {
  // The paper's motivating failure: delay-control starves against
  // loss-based cross traffic.
  const auto r = run_pair("vegas", "cubic");
  EXPECT_LT(r.a_mbps, 0.35 * 96.0);
  EXPECT_GT(r.b_mbps, 0.55 * 96.0);
}

TEST(CompetitionTest, BasicDelayLosesToCubic) {
  const auto r = run_pair("basic-delay", "cubic");
  EXPECT_LT(r.a_mbps, 0.35 * 96.0);
}

TEST(CompetitionTest, CopaSwitchesToCompetitiveVsCubic) {
  // Copa's own mode switching keeps throughput meaningful against Cubic
  // (unlike Vegas), even if not perfectly fair.
  const auto r = run_pair("copa", "cubic");
  EXPECT_GT(r.a_mbps, 0.15 * 96.0);
}

TEST(CompetitionTest, NimbusCompetesFairlyWithCubic) {
  const auto r = run_pair("nimbus", "cubic");
  EXPECT_GT(r.a_mbps, 0.3 * 96.0);
  EXPECT_GT(r.b_mbps, 0.25 * 96.0);
}

// ---------- Copa mode detection ----------

TEST(CopaModeTest, DefaultModeAgainstLightCbr) {
  sim::Network net(96e6, sim::buffer_bytes_for_bdp(96e6, from_ms(50), 2.0));
  auto copa = std::make_unique<cc::Copa>();
  cc::Copa* cptr = copa.get();
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = from_ms(50);
  net.add_flow(fc, std::move(copa));
  traffic::CbrSource::Config cbr;
  cbr.id = 2;
  cbr.rate_bps = 24e6;
  net.add_source(std::make_unique<traffic::CbrSource>(&net.loop(),
                                                      &net.link(), cbr));
  net.run_until(from_sec(30));
  EXPECT_FALSE(cptr->in_competitive_mode());
  EXPECT_LT(net.recorder().probed_queue_delay().mean_in(from_sec(10),
                                                        from_sec(30))
                .value(),
            30.0);
}

TEST(CopaModeTest, CompetitiveModeAgainstCubic) {
  sim::Network net(96e6, sim::buffer_bytes_for_bdp(96e6, from_ms(50), 2.0));
  auto copa = std::make_unique<cc::Copa>();
  cc::Copa* cptr = copa.get();
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = from_ms(50);
  net.add_flow(fc, std::move(copa));
  sim::TransportFlow::Config fb;
  fb.id = 2;
  fb.rtt_prop = from_ms(50);
  net.add_flow(fb, exp::make_scheme("cubic"));
  net.run_until(from_sec(30));
  EXPECT_TRUE(cptr->in_competitive_mode());
}

TEST(CopaModeTest, MisclassifiesHighRateCbr) {
  // App. D.1: at 80+ Mbit/s of CBR on a 96 Mbit/s link Copa cannot drain
  // the queue within 5 RTTs and wrongly turns competitive.
  sim::Network net(96e6, sim::buffer_bytes_for_bdp(96e6, from_ms(50), 2.0));
  auto copa = std::make_unique<cc::Copa>();
  cc::Copa* cptr = copa.get();
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = from_ms(50);
  net.add_flow(fc, std::move(copa));
  traffic::CbrSource::Config cbr;
  cbr.id = 2;
  cbr.rate_bps = 80e6;
  net.add_source(std::make_unique<traffic::CbrSource>(&net.loop(),
                                                      &net.link(), cbr));
  net.run_until(from_sec(40));
  EXPECT_TRUE(cptr->in_competitive_mode());
}

// ---------- BBR specifics ----------

TEST(BbrTest, ReachesProbeBwAndLinkRate) {
  sim::Network net(48e6, sim::buffer_bytes_for_bdp(48e6, from_ms(40), 2.0));
  auto bbr = std::make_unique<cc::Bbr>();
  cc::Bbr* bptr = bbr.get();
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = from_ms(40);
  net.add_flow(fc, std::move(bbr));
  net.run_until(from_sec(20));
  EXPECT_EQ(bptr->state(), cc::Bbr::State::kProbeBw);
  EXPECT_NEAR(bptr->btl_bw_bps(), 48e6, 7e6);
}

TEST(BbrTest, UnfairToCubicInDeepBuffers) {
  // Known BBR v1 behaviour the paper leans on (App. C): with deep buffers
  // the 2*BDP inflight cap limits BBR while Cubic fills the queue.
  const auto r = run_pair("bbr", "cubic", 96e6, from_ms(50), 4.0);
  EXPECT_GT(r.a_mbps + r.b_mbps, 80.0);
  // No fairness assertion — just both making progress.
  EXPECT_GT(r.a_mbps, 5.0);
  EXPECT_GT(r.b_mbps, 5.0);
}

// ---------- Vivace specifics ----------

TEST(VivaceTest, ClimbsToLinkRateAlone) {
  const auto r = run_solo("vivace", 48e6, from_ms(50), 2.0, from_sec(40));
  EXPECT_GT(r.rate_mbps, 38.0);
}

TEST(VivaceTest, ReactsSlowerThanOneRtt) {
  // Vivace only changes rate after a pair of monitor intervals (~2 RTTs),
  // the property that makes Nimbus classify it inelastic at 5 Hz (App. F).
  sim::Network net(48e6, sim::buffer_bytes_for_bdp(48e6, from_ms(50), 2.0));
  auto vv = std::make_unique<cc::Vivace>();
  cc::Vivace* vptr = vv.get();
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = from_ms(50);
  net.add_flow(fc, std::move(vv));
  // Sample the control rate every 10 ms; count changes over 5 s.
  int changes = 0;
  double last = 0;
  for (int i = 0; i < 500; ++i) {
    net.run_until(from_sec(10) + from_ms(10) * (i + 1));
    if (vptr->rate_bps() != last) {
      ++changes;
      last = vptr->rate_bps();
    }
  }
  // Rate updates happen once per ~2 MIs (>= 100 ms), so < 50 over 5 s —
  // far fewer than the 500 ticks.
  EXPECT_LT(changes, 60);
  EXPECT_GT(changes, 5);
}

}  // namespace
}  // namespace nimbus
