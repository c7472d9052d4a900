// Golden regressions for the scenario-layer configurations the PR-4 bench
// ports newly exercise: PIE bottlenecks (QueueKind::kPie), random-loss and
// policed paths, the DASH video source, and multi-flow Nimbus cross
// entries.  Every value is pinned to the output of the pre-port imperative
// harnesses (verified byte-identical during the port), so the bit-identity
// claim is enforced by ctest instead of a one-off stdout capture: any
// change to queue/source/seed plumbing that disturbs these paths fails
// here, not silently in a figure.
#include <gtest/gtest.h>

#include "exp/path_catalog.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace nimbus {
namespace {

// PIE AQM bottleneck: cubic protagonist against Poisson cross traffic
// (the App. E.2 configuration at bench scale).
exp::ScenarioSpec pie_spec() {
  exp::ScenarioSpec spec;
  spec.name = "golden/pie";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(10);
  spec.queue = exp::QueueKind::kPie;
  spec.buffer_bdp = 4.0;
  spec.pie_target_delay = from_ms(15);
  spec.protagonist.scheme = "cubic";
  spec.cross.push_back(exp::CrossSpec::poisson(24e6, 2));
  return spec;
}

TEST(ScenarioGoldenTest, PieQueueBottleneck) {
  const exp::ScenarioRun run = exp::run_scenario(pie_spec());
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 15463500);
  EXPECT_EQ(rec.delivered(2).total(), 28768500);
  EXPECT_EQ(run.built.net->link().dropped_packets(), 2210u);
  EXPECT_DOUBLE_EQ(
      rec.probed_queue_delay().mean_in(from_sec(2), from_sec(10)).value(),
      0.88875000000000004);
}

// Random-loss path from the catalog (lossy-2: 1% i.i.d. loss), via the
// same path_scenario used by bench_fig18/19.
TEST(ScenarioGoldenTest, RandomLossPath) {
  const auto paths = exp::internet_paths();
  const auto& lossy = paths[20];
  ASSERT_GT(lossy.random_loss, 0.0);
  const exp::ScenarioSpec spec =
      exp::path_scenario("cubic", lossy, from_sec(10), 7);
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 1773000);
  EXPECT_EQ(run.built.net->link().dropped_packets(), 104u);
}

// Policed path from the catalog (token-bucket below the line rate).
TEST(ScenarioGoldenTest, PolicedPath) {
  const auto paths = exp::internet_paths();
  const exp::PathConfig* policed = nullptr;
  for (const auto& p : paths) {
    if (p.policer) {
      policed = &p;
      break;
    }
  }
  ASSERT_NE(policed, nullptr);
  const exp::ScenarioSpec spec =
      exp::path_scenario("cubic", *policed, from_sec(10), 7);
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 38646000);
  EXPECT_EQ(run.built.net->link().dropped_packets(), 1497u);
}

// DASH video client cross traffic (the Fig. 11 configuration).
TEST(ScenarioGoldenTest, VideoSourceCross) {
  exp::ScenarioSpec spec;
  spec.name = "golden/video";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(10);
  spec.protagonist.scheme = "cubic";
  exp::CrossSpec video;
  video.kind = exp::CrossSpec::Kind::kVideo;
  video.rate_bps = 8e6;
  spec.cross.push_back(video);
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 34962000);
  EXPECT_EQ(rec.delivered(2).total(), 24282000);
}

// Multi-flow Nimbus cross entries (the Fig. 16/17 configuration): two
// staggered kNimbus flows, no protagonist.
TEST(ScenarioGoldenTest, NimbusCrossFlows) {
  exp::ScenarioSpec spec;
  spec.name = "golden/nimbus-cross";
  spec.mu_bps = 96e6;
  spec.duration = from_sec(12);
  spec.protagonist.enabled = false;
  for (int i = 0; i < 2; ++i) {
    core::Nimbus::Config cfg;
    cfg.known_mu_bps = spec.mu_bps;
    cfg.multiflow = true;
    spec.cross.push_back(exp::CrossSpec::nimbus_flow(
        cfg, static_cast<sim::FlowId>(i + 1),
        100 + static_cast<std::uint64_t>(i), from_sec(3) * i));
  }
  const exp::ScenarioRun run = exp::run_scenario(spec);
  ASSERT_EQ(run.built.nimbus_cross.size(), 2u);
  EXPECT_EQ(run.built.nimbus, nullptr);  // no protagonist
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 64162500);
  EXPECT_EQ(rec.delivered(2).total(), 35785500);
}

// The new run_scenario logs share one status handler: the eta log is
// detector-gated, the z log is not, and both carry the same timestamps as
// a hand-attached handler would.
TEST(ScenarioGoldenTest, RunScenarioLogsPopulated) {
  exp::ScenarioSpec spec;
  spec.name = "golden/logs";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(12);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = 48e6;
  spec.cross.push_back(exp::CrossSpec::poisson(12e6, 2));
  const exp::ScenarioRun run = exp::run_scenario(spec);
  ASSERT_NE(run.mode_log, nullptr);
  ASSERT_NE(run.eta_log, nullptr);
  ASSERT_NE(run.eta_raw_log, nullptr);
  ASSERT_NE(run.z_log, nullptr);
  EXPECT_GT(run.z_log->size(), run.eta_log->size());  // gating
  EXPECT_EQ(run.eta_log->size(), run.eta_raw_log->size());
  EXPECT_FALSE(run.eta_log->empty());
}

}  // namespace
}  // namespace nimbus
