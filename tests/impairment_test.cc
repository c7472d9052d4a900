// Tests for the adversarial path-impairment subsystem (sim/impairment.h):
// Gilbert–Elliott statistics, per-mechanism stream independence,
// reorder/duplicate/blackout semantics and determinism, ImpairmentSpec
// canonicalization coverage, and the run-budget watchdog (EventLoop budget
// + FAILED/TIMEOUT cell semantics in run_sweep).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/schemes.h"
#include "exp/spec_canon.h"
#include "sim/event_loop.h"
#include "sim/impairment.h"

namespace nimbus {
namespace {

namespace fs = std::filesystem;
using exp::CellResult;
using exp::RunBudget;
using exp::ScenarioSpec;
using sim::ImpairmentConfig;
using sim::ImpairmentStage;

// Offers `n` packets at 1 ms spacing and returns the decisions.
std::vector<ImpairmentStage::Decision> offer(ImpairmentStage& stage, int n) {
  std::vector<ImpairmentStage::Decision> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(stage.on_packet(from_ms(i)));
  return out;
}

// ---------------------------------------------------------------------------
// Gilbert–Elliott statistics.
// ---------------------------------------------------------------------------

TEST(ImpairmentTest, GilbertElliottMatchesStationaryLossRate) {
  // pi_bad = p/(p+q) = 0.05/0.25 = 0.2; with loss_bad = 1, loss_good = 0
  // the stationary loss rate equals pi_bad.
  ImpairmentConfig cfg;
  cfg.ge_enabled = true;
  cfg.ge_p = 0.05;
  cfg.ge_q = 0.20;
  cfg.seed = 42;
  ImpairmentStage stage(cfg);
  const int n = 200000;
  offer(stage, n);
  const double rate = static_cast<double>(stage.lost()) / n;
  // Correlated (bursty) samples: the tolerance is wide vs the i.i.d.
  // binomial stderr but tight vs the 0.2 prediction.
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(ImpairmentTest, GilbertElliottStateDependentLossRates) {
  // General GE: loss = pi_good*loss_good + pi_bad*loss_bad
  //           = 0.8*0.01 + 0.2*0.5 = 0.108.
  ImpairmentConfig cfg;
  cfg.ge_enabled = true;
  cfg.ge_p = 0.05;
  cfg.ge_q = 0.20;
  cfg.ge_loss_good = 0.01;
  cfg.ge_loss_bad = 0.5;
  cfg.seed = 43;
  ImpairmentStage stage(cfg);
  const int n = 200000;
  offer(stage, n);
  EXPECT_NEAR(static_cast<double>(stage.lost()) / n, 0.108, 0.015);
}

TEST(ImpairmentTest, GilbertElliottLossesAreBursty) {
  // Mean loss-burst length is 1/q = 5 packets; i.i.d. loss at the same
  // 20% rate would give mean run length 1/(1-0.2) = 1.25.
  ImpairmentConfig cfg;
  cfg.ge_enabled = true;
  cfg.ge_p = 0.05;
  cfg.ge_q = 0.20;
  cfg.seed = 44;
  ImpairmentStage stage(cfg);
  const auto decisions = offer(stage, 200000);
  long runs = 0;
  long lost = 0;
  bool in_run = false;
  for (const auto& d : decisions) {
    if (d.copies == 0) {
      ++lost;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  ASSERT_GT(runs, 0);
  const double mean_burst = static_cast<double>(lost) / runs;
  EXPECT_GT(mean_burst, 4.0);
  EXPECT_LT(mean_burst, 6.0);
}

// ---------------------------------------------------------------------------
// Determinism and stream independence.
// ---------------------------------------------------------------------------

TEST(ImpairmentTest, DecisionsAreDeterministicInTheSeed) {
  ImpairmentConfig cfg;
  cfg.ge_enabled = true;
  cfg.ge_p = 0.02;
  cfg.ge_q = 0.1;
  cfg.jitter = from_ms(5);
  cfg.reorder = true;
  cfg.duplicate_prob = 0.05;
  cfg.seed = 7;

  ImpairmentStage a(cfg);
  ImpairmentStage b(cfg);
  const auto da = offer(a, 20000);
  const auto db = offer(b, 20000);
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_EQ(da[i].copies, db[i].copies) << i;
    for (int k = 0; k < da[i].copies; ++k) {
      ASSERT_EQ(da[i].delay[k], db[i].delay[k]) << i;
    }
  }

  cfg.seed = 8;
  ImpairmentStage c(cfg);
  const auto dc = offer(c, 20000);
  bool differs = false;
  for (std::size_t i = 0; i < da.size() && !differs; ++i) {
    differs = da[i].copies != dc[i].copies ||
              (da[i].copies > 0 && da[i].delay[0] != dc[i].delay[0]);
  }
  EXPECT_TRUE(differs);
}

TEST(ImpairmentTest, MechanismStreamsAreIndependent) {
  // Turning on duplication and jitter must not shift the loss pattern:
  // each mechanism draws from its own derived stream.
  ImpairmentConfig loss_only;
  loss_only.ge_enabled = true;
  loss_only.ge_p = 0.02;
  loss_only.ge_q = 0.1;
  loss_only.seed = 99;

  ImpairmentConfig all = loss_only;
  all.duplicate_prob = 0.2;
  all.jitter = from_ms(10);
  all.reorder = true;

  ImpairmentStage a(loss_only);
  ImpairmentStage b(all);
  const auto da = offer(a, 50000);
  const auto db = offer(b, 50000);
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_EQ(da[i].copies == 0, db[i].copies == 0)
        << "loss pattern shifted at packet " << i;
  }
  EXPECT_EQ(a.lost(), b.lost());
}

// ---------------------------------------------------------------------------
// Jitter / reorder / duplication semantics.
// ---------------------------------------------------------------------------

TEST(ImpairmentTest, NoReorderClampsReleasesToFifo) {
  ImpairmentConfig cfg;
  cfg.jitter = from_ms(10);
  cfg.reorder = false;
  cfg.seed = 5;
  ImpairmentStage stage(cfg);
  TimeNs last_release = 0;
  for (int i = 0; i < 20000; ++i) {
    const TimeNs now = from_ms(i);  // 1 ms spacing < 10 ms jitter span
    const auto d = stage.on_packet(now);
    ASSERT_EQ(d.copies, 1);
    const TimeNs release = now + d.delay[0];
    ASSERT_GE(release, last_release) << "overtake at packet " << i;
    // release = max(now + draw, last_release), draw <= 10 ms.
    ASSERT_LE(d.delay[0], std::max(from_ms(10), last_release - now));
    last_release = release;
  }
  EXPECT_EQ(stage.reordered(), 0u);
}

TEST(ImpairmentTest, ReorderAllowsOvertaking) {
  ImpairmentConfig cfg;
  cfg.jitter = from_ms(10);
  cfg.reorder = true;
  cfg.seed = 5;
  ImpairmentStage stage(cfg);
  bool overtook = false;
  TimeNs last_release = 0;
  for (int i = 0; i < 5000; ++i) {
    const TimeNs now = from_ms(i);
    const auto d = stage.on_packet(now);
    ASSERT_EQ(d.copies, 1);
    ASSERT_LE(d.delay[0], from_ms(10));
    const TimeNs release = now + d.delay[0];
    if (release < last_release) overtook = true;
    last_release = std::max(last_release, release);
  }
  EXPECT_TRUE(overtook);
  EXPECT_GT(stage.reordered(), 0u);
}

TEST(ImpairmentTest, DuplicationRateMatchesConfig) {
  ImpairmentConfig cfg;
  cfg.duplicate_prob = 0.1;
  cfg.seed = 6;
  ImpairmentStage stage(cfg);
  const auto decisions = offer(stage, 50000);
  long dup = 0;
  for (const auto& d : decisions) {
    if (d.copies == 2) ++dup;
  }
  EXPECT_NEAR(static_cast<double>(dup) / decisions.size(), 0.1, 0.01);
  EXPECT_EQ(static_cast<long>(stage.duplicated()), dup);
}

TEST(ImpairmentTest, BlackoutsAndFlapsDropInsideTheirWindows) {
  ImpairmentConfig cfg;
  cfg.blackouts = {{from_sec(1), from_sec(1)}};  // [1 s, 2 s)
  cfg.flap_period = from_sec(10);
  cfg.flap_duration = from_sec(1);
  cfg.flap_offset = from_sec(5);  // [5,6), [15,16), ...
  cfg.seed = 3;
  ImpairmentStage stage(cfg);
  const auto at = [&](double sec) { return stage.on_packet(from_sec(sec)); };
  EXPECT_EQ(at(0.5).copies, 1);
  EXPECT_EQ(at(1.5).copies, 0);
  EXPECT_EQ(at(1.999).copies, 0);
  EXPECT_EQ(at(2.0).copies, 1);
  EXPECT_EQ(at(5.5).copies, 0);   // first flap
  EXPECT_EQ(at(6.5).copies, 1);
  EXPECT_EQ(at(15.5).copies, 0);  // periodic repeat
  EXPECT_EQ(at(16.5).copies, 1);
  EXPECT_EQ(stage.blackout_dropped(), 4u);
}

TEST(ImpairmentDeathTest, ZeroSeedIsRejected) {
  ImpairmentConfig cfg;
  cfg.jitter = from_ms(1);
  cfg.seed = 0;
  EXPECT_DEATH(
      {
        ImpairmentStage stage(cfg);
        (void)stage;
      },
      "nonzero seed");
}

TEST(ImpairmentTest, DefaultConfigIsNoOp) {
  EXPECT_FALSE(ImpairmentConfig{}.any());
  EXPECT_FALSE(exp::ImpairmentSpec{}.any());
}

// ---------------------------------------------------------------------------
// Spec plumbing + canonicalization.
// ---------------------------------------------------------------------------

ScenarioSpec impaired_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "impairtest/small";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(8);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(exp::CrossSpec::poisson(6e6, 2));
  spec.impairment.forward.ge_enabled = true;
  spec.impairment.forward.ge_p = 0.002;
  spec.impairment.forward.ge_q = 0.2;
  spec.impairment.forward.jitter = from_ms(2);
  spec.impairment.forward.reorder = true;
  spec.impairment.reverse.ge_enabled = true;
  spec.impairment.reverse.ge_p = 0.002;
  spec.impairment.reverse.ge_q = 0.2;
  return spec.with_seed(seed);
}

TEST(ImpairmentSpecTest, NoOpSpecInstallsNoStage) {
  ScenarioSpec spec = impaired_spec(1234);
  spec.impairment = {};
  auto built = exp::build_network(spec);
  EXPECT_EQ(built.net->link().impairment(), nullptr);
  EXPECT_EQ(built.net->ack_impairment(), nullptr);
}

TEST(ImpairmentSpecTest, StagesInstalledWithDerivedSeeds) {
  const ScenarioSpec spec = impaired_spec(1234);
  auto built = exp::build_network(spec);
  ASSERT_NE(built.net->link().impairment(), nullptr);
  ASSERT_NE(built.net->ack_impairment(), nullptr);
  const std::uint64_t fwd = built.net->link().impairment()->config().seed;
  const std::uint64_t rev = built.net->ack_impairment()->config().seed;
  EXPECT_NE(fwd, 0u);
  EXPECT_NE(rev, 0u);
  EXPECT_NE(fwd, rev);
  // Seed derivation follows the scenario seed.
  auto built2 = exp::build_network(impaired_spec(777));
  EXPECT_NE(built2.net->link().impairment()->config().seed, fwd);
}

TEST(ImpairmentSpecTest, ImpairedRunsAreDeterministic) {
  const ScenarioSpec spec = impaired_spec(1234);
  const auto fingerprint = [](const ScenarioSpec& s) {
    auto run = exp::run_scenario(s);
    const auto* f = run.built.protagonist;
    return std::make_tuple(f->acked_bytes(), f->lost_packets(),
                           f->sent_packets(), f->rto_count());
  };
  EXPECT_EQ(fingerprint(spec), fingerprint(spec));
  EXPECT_NE(fingerprint(spec), fingerprint(impaired_spec(4321)));
}

TEST(ImpairmentSpecTest, ForwardDuplicationAndReorderDoNotBreakTransport) {
  // A finite flow over a duplicating, reordering, lossy forward path must
  // still complete exactly (reliable delivery survives the adversary).
  ScenarioSpec spec = impaired_spec(55);
  spec.cross.clear();
  spec.protagonist.use_nimbus_config = false;
  spec.protagonist.scheme = "cubic";
  spec.impairment.forward.duplicate_prob = 0.1;
  spec.impairment.forward.jitter = from_ms(5);
  spec.duration = from_sec(30);
  auto built = exp::build_network(spec);
  sim::TransportFlow* probe = built.net->add_flow(
      [] {
        sim::TransportFlow::Config fc;
        fc.id = 9;
        fc.app_bytes = 2 * 1000 * 1000;
        fc.seed = 91;
        return fc;
      }(),
      exp::make_scheme("cubic"));
  built.net->run_until(spec.duration);
  EXPECT_TRUE(probe->completed());
  // acked_bytes_total_ can slightly undercount around spurious
  // retransmissions (cum-ack purges don't credit bytes), so bound it
  // loosely; completed() is the exact all-data-acknowledged check.
  EXPECT_GE(probe->acked_bytes(), 19 * 100 * 1000);
}

TEST(ImpairmentSpecTest, AckBlackoutRecoversViaRetransmission) {
  // A 1 s ACK-path blackout mid-transfer: every ACK in the window is lost,
  // the sender RTOs, and the flow still completes.
  ScenarioSpec spec;
  spec.name = "impairtest/ack-blackout";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(30);
  spec.protagonist.use_nimbus_config = false;
  spec.protagonist.scheme = "cubic";
  spec.impairment.reverse.blackouts = {{from_sec(2), from_sec(1)}};
  auto run = exp::run_scenario(spec);
  const auto* f = run.built.protagonist;
  ASSERT_NE(run.built.net->ack_impairment(), nullptr);
  EXPECT_GT(run.built.net->ack_impairment()->blackout_dropped(), 0u);
  EXPECT_GT(f->rto_count(), 0u);
  EXPECT_GT(f->acked_bytes(), 0);
  // The flow keeps making progress after the blackout clears.
  EXPECT_GT(f->acked_bytes(), static_cast<std::int64_t>(10 * 1000 * 1000));
}

TEST(ImpairmentSpecTest, EveryImpairmentFieldPerturbsTheHash) {
  using Mutator = std::function<void(sim::ImpairmentConfig&)>;
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"ge_enabled", [](auto& c) { c.ge_enabled = !c.ge_enabled; }},
      {"ge_p", [](auto& c) { c.ge_p += 0.001; }},
      {"ge_q", [](auto& c) { c.ge_q += 0.001; }},
      {"ge_loss_good", [](auto& c) { c.ge_loss_good += 0.001; }},
      {"ge_loss_bad", [](auto& c) { c.ge_loss_bad -= 0.001; }},
      {"jitter", [](auto& c) { c.jitter += 1; }},
      {"reorder", [](auto& c) { c.reorder = !c.reorder; }},
      {"duplicate_prob", [](auto& c) { c.duplicate_prob += 0.001; }},
      {"blackouts.add", [](auto& c) { c.blackouts.push_back({1, 2}); }},
      {"blackouts.start",
       [](auto& c) { c.blackouts.push_back({3, 2}); }},  // vs {1,2} below
      {"flap_period", [](auto& c) { c.flap_period += from_ms(1); }},
      {"flap_duration", [](auto& c) { c.flap_duration += 1; }},
      {"flap_offset", [](auto& c) { c.flap_offset += 1; }},
      {"seed", [](auto& c) { c.seed += 1; }},
  };
  const ScenarioSpec base = impaired_spec(1234);
  const exp::Hash128 h = exp::spec_hash(base);
  for (const auto& [name, mutate] : mutators) {
    ScenarioSpec fwd = base;
    mutate(fwd.impairment.forward);
    EXPECT_NE(exp::spec_hash(fwd), h) << "forward." << name;
    ScenarioSpec rev = base;
    mutate(rev.impairment.reverse);
    EXPECT_NE(exp::spec_hash(rev), h) << "reverse." << name;
    // Direction matters: the same mutation forward vs reverse must yield
    // distinct hashes (per-direction keys, not a shared block).
    EXPECT_NE(exp::spec_hash(fwd), exp::spec_hash(rev)) << name;
  }
  // Outage fields are order-normalized only at stage install; spec-level
  // distinct schedules stay distinct.
  ScenarioSpec a = base;
  a.impairment.forward.blackouts.push_back({1, 2});
  ScenarioSpec b = base;
  b.impairment.forward.blackouts.push_back({1, 3});
  EXPECT_NE(exp::spec_hash(a), exp::spec_hash(b));
}

// ---------------------------------------------------------------------------
// Watchdog: EventLoop budget + FAILED/TIMEOUT cells.
// ---------------------------------------------------------------------------

TEST(WatchdogTest, EventBudgetStopsTheLoopExactly) {
  sim::EventLoop loop;
  long fired = 0;
  // Self-rescheduling tick: would run forever without the budget.
  std::function<void()> tick = [&] {
    ++fired;
    loop.schedule_in(from_ms(1), [&] { tick(); });
  };
  loop.schedule_in(from_ms(1), [&] { tick(); });
  loop.set_run_budget(/*max_events=*/1000, /*max_wall_seconds=*/0.0);
  loop.run_until(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(loop.budget_stop(), sim::EventLoop::BudgetStop::kEvents);
  EXPECT_EQ(loop.processed_events(), 1000u);
  EXPECT_EQ(fired, 1000);
  // The unfired continuation is still pending, exactly like stop().
  EXPECT_EQ(loop.pending_events(), 1u);
}

TEST(WatchdogTest, WallClockBudgetStopsARunawayLoop) {
  sim::EventLoop loop;
  std::function<void()> tick = [&] {
    loop.schedule_in(1, [&] { tick(); });  // 1 ns: effectively infinite work
  };
  loop.schedule_in(1, [&] { tick(); });
  loop.set_run_budget(0, /*max_wall_seconds=*/0.05);
  loop.run_until(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(loop.budget_stop(), sim::EventLoop::BudgetStop::kWall);
}

TEST(WatchdogTest, UnbudgetedRunsReportNoBudgetStop) {
  sim::EventLoop loop;
  int fired = 0;
  loop.schedule_in(from_ms(1), [&] { ++fired; });
  loop.run_until(from_sec(1));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.budget_stop(), sim::EventLoop::BudgetStop::kNone);
}

// A scenario that would simulate ~28 hours of CBR traffic: "hung" on any
// reasonable wall/event budget, while remaining fully deterministic.
ScenarioSpec hung_spec() {
  ScenarioSpec spec;
  spec.name = "impairtest/hung";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(100000);
  spec.protagonist.enabled = false;
  spec.cross.push_back(exp::CrossSpec::cbr(8e6, 2));
  return spec;
}

ScenarioSpec quick_spec() {
  ScenarioSpec spec;
  spec.name = "impairtest/quick";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(2);
  spec.protagonist.enabled = false;
  spec.cross.push_back(exp::CrossSpec::cbr(8e6, 2));
  return spec;
}

TEST(WatchdogTest, EventBudgetYieldsFailedCellWithoutStallingTheRunner) {
  exp::ResultCache off("", exp::ResultCache::Mode::kOff);
  const std::vector<ScenarioSpec> specs = {hung_spec(), quick_spec()};
  const RunBudget budget{/*max_events=*/200000, /*max_wall_seconds=*/0.0};
  const auto results = exp::run_sweep(
      specs,
      [](const ScenarioSpec&, exp::ScenarioRun& run) {
        return CellResult::scalar(to_sec(run.built.net->loop().now()));
      },
      {}, nullptr, nullptr, &off, nullptr, &budget);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].valid);
  EXPECT_EQ(results[0].fail, CellResult::Fail::kEventBudget);
  EXPECT_STREQ(results[0].fail_label(), "EVENT-BUDGET");
  EXPECT_TRUE(std::isnan(results[0].value()));
  ASSERT_TRUE(results[1].valid);
  EXPECT_NEAR(results[1].value(), 2.0, 1e-9);
}

TEST(WatchdogTest, WallClockTimeoutYieldsTimeoutCell) {
  exp::ResultCache off("", exp::ResultCache::Mode::kOff);
  const std::vector<ScenarioSpec> specs = {hung_spec()};
  const RunBudget budget{0, /*max_wall_seconds=*/0.1};
  const auto results = exp::run_sweep(
      specs,
      [](const ScenarioSpec&, exp::ScenarioRun&) {
        return CellResult::scalar(1.0);
      },
      {}, nullptr, nullptr, &off, nullptr, &budget);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].valid);
  EXPECT_EQ(results[0].fail, CellResult::Fail::kTimeout);
  EXPECT_STREQ(results[0].fail_label(), "TIMEOUT");
}

TEST(WatchdogTest, FailedCellsAreNeverStoredInTheCache) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("nimbus-impair-wd-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  exp::ResultCache rw(dir.string(), exp::ResultCache::Mode::kReadWrite);
  const std::vector<ScenarioSpec> specs = {hung_spec(), quick_spec()};
  const RunBudget budget{/*max_events=*/200000, 0.0};
  exp::run_sweep(
      specs,
      [](const ScenarioSpec&, exp::ScenarioRun& run) {
        return CellResult::scalar(to_sec(run.built.net->loop().now()));
      },
      {}, nullptr, nullptr, &rw, nullptr, &budget);
  EXPECT_EQ(rw.stats().stores, 1);  // only the completed cell
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace nimbus
