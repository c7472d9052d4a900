// Tests for the reliable transport: ACK clocking, RTT measurement, loss
// detection and retransmission, RTO recovery, pacing, app-limited flows,
// and flow completion.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cc/const_window.h"
#include "cc/reno.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace nimbus::sim {
namespace {

constexpr double kRate = 12e6;  // 1500 B = 1 ms serialization

TEST(TransportTest, RttMeasurementMatchesPath) {
  // One packet in an empty network: RTT = serialization + propagation.
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(50);
  cfg.app_bytes = 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(10));
  net.run_until(from_sec(2));
  EXPECT_TRUE(flow->completed());
  EXPECT_EQ(flow->latest_rtt(), from_ms(51));
  EXPECT_EQ(flow->min_rtt(), from_ms(51));
}

TEST(TransportTest, WindowLimitedThroughput) {
  // cwnd = 10 pkts, RTT ~= 50 ms -> ~10*1500*8/0.05 = 2.4 Mbit/s,
  // well under the 12 Mbit/s link.
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(50);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(10));
  net.run_until(from_sec(10));
  const double rate =
      net.recorder().delivered(1).rate_bps(from_sec(2), from_sec(10));
  EXPECT_NEAR(rate, 10 * 1500 * 8 / 0.051, 0.1e6);
}

TEST(TransportTest, LargeWindowSaturatesLink) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(500));
  net.run_until(from_sec(10));
  const double rate =
      net.recorder().delivered(1).rate_bps(from_sec(2), from_sec(10));
  EXPECT_NEAR(rate, kRate, 0.05 * kRate);
}

TEST(TransportTest, AckClockingAdaptsToCrossTraffic) {
  // A fixed-window flow shares the link with another fixed-window flow;
  // both are ACK-clocked and the link stays fully utilized.
  Network net(kRate, 1 << 20);
  for (FlowId id : {1u, 2u}) {
    TransportFlow::Config cfg;
    cfg.id = id;
    cfg.rtt_prop = from_ms(20);
    net.add_flow(cfg, std::make_unique<cc::ConstWindow>(200));
  }
  net.run_until(from_sec(10));
  const double r1 =
      net.recorder().delivered(1).rate_bps(from_sec(2), from_sec(10));
  const double r2 =
      net.recorder().delivered(2).rate_bps(from_sec(2), from_sec(10));
  EXPECT_NEAR(r1 + r2, kRate, 0.05 * kRate);
  EXPECT_NEAR(r1, r2, 0.15 * kRate);  // equal windows -> equal shares
}

TEST(TransportTest, FiniteFlowCompletesReliablyDespiteDrops) {
  // Tiny buffer forces drops; the flow must still complete exactly.
  Network net(kRate, 8 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 3000 * 1500;  // 3000 packets
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  bool completed = false;
  TimeNs fct = 0;
  flow->set_completion_handler(
      [&](FlowId, TimeNs, TimeNs t) {
        completed = true;
        fct = t;
      });
  net.run_until(from_sec(60));
  EXPECT_TRUE(completed);
  EXPECT_GT(flow->lost_packets(), 0u);  // drops did happen
  EXPECT_GT(fct, from_sec(1));
  // Acked bytes cover the app data exactly (no phantom bytes).
  EXPECT_GE(flow->acked_bytes(), cfg.app_bytes);
}

TEST(TransportTest, DupackLossDetectionNoRto) {
  // With a healthy window and isolated drops, fast retransmit should
  // recover without any RTO.
  Network net(kRate, 20 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 2000 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  net.run_until(from_sec(60));
  EXPECT_TRUE(flow->completed());
  EXPECT_GT(flow->lost_packets(), 0u);
  EXPECT_EQ(flow->rto_count(), 0u);
}

TEST(TransportTest, RtoRecoversFromTotalLoss) {
  // Random loss so aggressive that whole windows vanish occasionally.
  Network net(kRate, 1 << 20);
  net.link().set_random_loss(0.4, 17);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 50 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  net.run_until(from_sec(120));
  EXPECT_TRUE(flow->completed());
}

TEST(TransportTest, TraceRecordsCarryFlowIdsPast16Bits) {
  // The RtoRecoversFromTotalLoss path under tracing, with an id that does
  // not fit 16 bits: every loss, cwnd-collapse and RTO record names it.
  constexpr FlowId kId = 70000;
  Network net(kRate, 1 << 20);
  net.link().set_random_loss(0.4, 17);
  obs::Telemetry telemetry(obs::Mode::kTrace);
  net.attach_telemetry(&telemetry);
  TransportFlow::Config cfg;
  cfg.id = kId;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 50 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  net.run_until(from_sec(120));
  ASSERT_TRUE(flow->completed());

  int losses = 0, rtos = 0;
  for (const obs::TraceEvent& e : telemetry.recorder.snapshot()) {
    const auto kind = static_cast<obs::TraceKind>(e.kind);
    if (kind != obs::TraceKind::kLossEpisode &&
        kind != obs::TraceKind::kCwndCollapse &&
        kind != obs::TraceKind::kRtoFired) {
      continue;
    }
    EXPECT_EQ(e.flow, kId);
    losses += kind == obs::TraceKind::kLossEpisode;
    rtos += kind == obs::TraceKind::kRtoFired;
  }
  EXPECT_GT(losses, 0);
  EXPECT_EQ(rtos, static_cast<int>(flow->rto_count()));
  EXPECT_GT(rtos, 0);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  telemetry.recorder.write_csv(f);
  std::rewind(f);
  std::string csv;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    csv.append(buf, n);
  }
  std::fclose(f);
  EXPECT_NE(csv.find(",loss_episode,70000,"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",rto_fired,70000,"), std::string::npos) << csv;
}

TEST(TransportTest, PacedFlowRespectsRate) {
  // A rate-based CC that paces at 4 Mbit/s on a 12 Mbit/s link.
  class FixedRate final : public CcAlgorithm {
   public:
    std::string name() const override { return "fixed-rate"; }
    void init(CcContext& ctx) override {
      ctx.set_pacing_rate_bps(4e6);
      ctx.set_cwnd_bytes(1e9);
    }
    void on_ack(CcContext&, const AckInfo&) override {}
  };
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  net.add_flow(cfg, std::make_unique<FixedRate>());
  net.run_until(from_sec(10));
  const double rate =
      net.recorder().delivered(1).rate_bps(from_sec(1), from_sec(10));
  EXPECT_NEAR(rate, 4e6, 0.2e6);
}

TEST(TransportTest, StopTimeDrainsFlow) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.stop_time = from_sec(2);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(100));
  net.run_until(from_sec(10));
  const double early =
      net.recorder().delivered(1).rate_bps(from_sec(1), from_sec(2));
  const double late =
      net.recorder().delivered(1).rate_bps(from_sec(3), from_sec(10));
  EXPECT_GT(early, 1e6);
  EXPECT_NEAR(late, 0.0, 1e3);
}

TEST(TransportTest, AppLimitedFlowIdlesBetweenBursts) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 0;  // app-driven
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(100));
  // Offer 30 KB every 500 ms = ~480 kbit/s average.
  for (int i = 0; i < 10; ++i) {
    net.loop().schedule(from_ms(500 * i),
                        [flow]() { flow->add_app_bytes(30000); });
  }
  net.run_until(from_sec(6));
  const double rate = net.recorder().delivered(1).rate_bps(0, from_sec(5));
  EXPECT_NEAR(rate, 480e3, 60e3);
  EXPECT_TRUE(flow->is_app_limited());
}

TEST(TransportTest, StartTimeHonored) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.start_time = from_sec(3);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(50));
  net.run_until(from_sec(6));
  EXPECT_EQ(net.recorder().delivered(1).bytes_in(0, from_sec(3)), 0);
  EXPECT_GT(net.recorder().delivered(1).bytes_in(from_sec(3), from_sec(6)),
            0);
}

TEST(TransportTest, SrttConvergesToPathRtt) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(40);
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(5));
  net.run_until(from_sec(5));
  // Light load: no queueing, sRTT ~= prop + serialization.
  EXPECT_NEAR(to_ms(flow->srtt()), 41.0, 1.0);
}

TEST(TransportTest, ReportsCarryRates) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(400));
  net.run_until(from_sec(5));
  EXPECT_TRUE(flow->rates_valid());
  // Link-saturating flow: S ~= R ~= link rate.
  EXPECT_NEAR(flow->send_rate_bps(), kRate, 0.1 * kRate);
  EXPECT_NEAR(flow->recv_rate_bps(), kRate, 0.1 * kRate);
}

}  // namespace
}  // namespace nimbus::sim
