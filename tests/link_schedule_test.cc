// RateSchedule family + Mahimahi trace loader + BottleneckLink schedule
// integration (ISSUE 5).  Covers:
//   * per-kind schedule semantics (constant/steps/sine/random-walk/trace)
//     and validation death tests;
//   * trace-file round-trip (write -> parse), comment/whitespace
//     tolerance, and malformed-input death tests (including timestamps
//     too large for the nanosecond clock);
//   * random-walk determinism under exp::derive_seed, including
//     random-access == sequential-access memoisation;
//   * the checked-in data/traces/ files (loadable, sane means);
//   * mid-serialization rate changes on the link: residual bytes finish
//     at the post-change rate, busy_time_ corrected accordingly;
//   * scenario plumbing (LinkSpec -> µ(t)) and a golden pin that a
//     RateSchedule::constant install reproduces the PR 4 constant-link
//     outputs byte-identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "sim/link_schedule.h"
#include "sim/network.h"

namespace nimbus {
namespace {

using sim::RateSchedule;
using sim::RateStep;

std::string temp_trace_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- schedule kinds ------------------------------------------------------

TEST(RateScheduleTest, ConstantNeverChanges) {
  const auto s = RateSchedule::constant(48e6);
  EXPECT_DOUBLE_EQ(s->rate_at(0), 48e6);
  EXPECT_DOUBLE_EQ(s->rate_at(from_sec(1000)), 48e6);
  EXPECT_EQ(s->next_change_after(0), RateSchedule::kNoChange);
  EXPECT_DOUBLE_EQ(s->mean_rate_bps(), 48e6);
}

TEST(RateScheduleTest, StepsPiecewiseSemantics) {
  const auto s = RateSchedule::steps(
      10e6, {{from_sec(1), 20e6}, {from_sec(3), 5e6}});
  EXPECT_DOUBLE_EQ(s->rate_at(0), 10e6);
  EXPECT_DOUBLE_EQ(s->rate_at(from_sec(1) - 1), 10e6);
  // Right-continuous: the value at a change point is the new rate.
  EXPECT_DOUBLE_EQ(s->rate_at(from_sec(1)), 20e6);
  EXPECT_DOUBLE_EQ(s->rate_at(from_sec(2)), 20e6);
  EXPECT_DOUBLE_EQ(s->rate_at(from_sec(5)), 5e6);
  EXPECT_EQ(s->next_change_after(0), from_sec(1));
  EXPECT_EQ(s->next_change_after(from_sec(1)), from_sec(3));
  EXPECT_EQ(s->next_change_after(from_sec(3)), RateSchedule::kNoChange);
}

TEST(RateScheduleTest, StepsValidation) {
  EXPECT_DEATH(RateSchedule::steps(10e6, {{from_sec(2), 20e6},
                                          {from_sec(1), 5e6}}),
               "NIMBUS_CHECK failed");
  EXPECT_DEATH(RateSchedule::steps(10e6, {{from_sec(1), 0.0}}),
               "NIMBUS_CHECK failed");
  EXPECT_DEATH(RateSchedule::steps(0.0, {}), "NIMBUS_CHECK failed");
}

TEST(RateScheduleTest, SineQuantisedAndBounded) {
  const double mean = 40e6, amp = 0.25;
  const TimeNs period = from_sec(10), quantum = from_ms(100);
  const auto s = RateSchedule::sine(mean, amp, period, quantum);
  EXPECT_DOUBLE_EQ(s->mean_rate_bps(), mean);
  // Constant within one quantum (piecewise-constant for the link).
  EXPECT_DOUBLE_EQ(s->rate_at(quantum), s->rate_at(quantum + quantum / 2));
  EXPECT_EQ(s->next_change_after(0), quantum);
  EXPECT_EQ(s->next_change_after(quantum + 1), 2 * quantum);
  // Quarter period = peak; stays within mean * (1 +/- amp) everywhere.
  EXPECT_NEAR(s->rate_at(period / 4), mean * (1 + amp), mean * 0.01);
  for (TimeNs t = 0; t < 2 * period; t += quantum) {
    EXPECT_GE(s->rate_at(t), mean * (1 - amp) - 1.0);
    EXPECT_LE(s->rate_at(t), mean * (1 + amp) + 1.0);
  }
  // Zero amplitude degenerates to a constant schedule.
  const auto flat = RateSchedule::sine(mean, 0.0, period, quantum);
  EXPECT_EQ(flat->next_change_after(0), RateSchedule::kNoChange);
  EXPECT_DOUBLE_EQ(flat->rate_at(from_sec(3)), mean);
}

TEST(RateScheduleTest, RandomWalkDeterministicUnderDeriveSeed) {
  const double mean = 48e6, amp = 0.3;
  const TimeNs step = from_ms(200);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = exp::derive_seed(1234, i);
    const auto a = RateSchedule::random_walk(mean, amp, step, 0.05, seed);
    const auto b = RateSchedule::random_walk(mean, amp, step, 0.05, seed);
    // Random access on one replays the identical trajectory sequential
    // access sees on the other (memoised lazy generation).
    EXPECT_DOUBLE_EQ(a->rate_at(from_sec(20)), b->rate_at(from_sec(20)));
    for (TimeNs t = 0; t < from_sec(20); t += step) {
      EXPECT_DOUBLE_EQ(a->rate_at(t), b->rate_at(t));
      EXPECT_GE(a->rate_at(t), mean * (1 - amp) - 1.0);
      EXPECT_LE(a->rate_at(t), mean * (1 + amp) + 1.0);
    }
  }
  // Different derived seeds give different walks.
  const auto a = RateSchedule::random_walk(mean, amp, step, 0.05,
                                           exp::derive_seed(1234, 0));
  const auto b = RateSchedule::random_walk(mean, amp, step, 0.05,
                                           exp::derive_seed(1234, 1));
  bool differs = false;
  for (TimeNs t = 0; t < from_sec(5) && !differs; t += step) {
    differs = a->rate_at(t) != b->rate_at(t);
  }
  EXPECT_TRUE(differs);
}

// --- trace parsing -------------------------------------------------------

TEST(TraceParseTest, RoundTripAndTolerantParsing) {
  const std::vector<std::int64_t> opportunities = {0, 1, 1, 3, 7, 7, 7, 12};
  const std::string path = temp_trace_path("roundtrip.trace");
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  for (std::int64_t ms : opportunities) {
    std::fprintf(out, "%lld\n", static_cast<long long>(ms));
  }
  std::fclose(out);
  EXPECT_EQ(sim::parse_trace_file(path), opportunities);

  // Comments, blank lines, and surrounding whitespace are skipped.
  const std::string messy = temp_trace_path("messy.trace");
  std::FILE* f = std::fopen(messy.c_str(), "w");
  std::fputs("# Mahimahi trace\n\n  5  \n7\r\n\n# tail comment\n9\n", f);
  std::fclose(f);
  EXPECT_EQ(sim::parse_trace_file(messy),
            (std::vector<std::int64_t>{5, 7, 9}));
}

TEST(TraceParseTest, MalformedInputsDie) {
  const auto write = [](const std::string& name, const char* content) {
    const std::string path = temp_trace_path(name);
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(content, f);
    std::fclose(f);
    return path;
  };
  EXPECT_DEATH(sim::parse_trace_file(temp_trace_path("missing.trace")),
               "cannot open trace file");
  EXPECT_DEATH(sim::parse_trace_file(write("junk.trace", "12\nabc\n")),
               "malformed trace line 2");
  EXPECT_DEATH(sim::parse_trace_file(write("neg.trace", "5\n-3\n")),
               "malformed trace line 2");
  EXPECT_DEATH(sim::parse_trace_file(write("float.trace", "5\n6.5\n")),
               "malformed trace line 2");
  EXPECT_DEATH(
      sim::parse_trace_file(write("huge.trace", "5\n99999999999999999999\n")),
      "malformed trace line 2");
  EXPECT_DEATH(sim::parse_trace_file(write("desc.trace", "9\n5\n")),
               "non-decreasing");
  EXPECT_DEATH(sim::parse_trace_file(write("empty.trace", "# only\n")),
               "empty trace");
  // A single opportunity at t=0 has a zero looping period.
  EXPECT_DEATH(RateSchedule::from_trace_ms({0}), "period is zero");
}

TEST(TraceParseTest, TimestampsPastTheClockRangeDie) {
  // 1e13 ms parses as an int64, but 1e13 * kNanosPerMs exceeds INT64_MAX:
  // the schedule must refuse it before converting to nanoseconds.
  const std::string path = temp_trace_path("far.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("10000000000000\n", f);
  std::fclose(f);
  EXPECT_DEATH(RateSchedule::from_trace_file(path),
               "trace timestamp too large for the simulator clock: .*"
               "far\\.trace");
  EXPECT_DEATH(RateSchedule::from_trace_ms({1, 10'000'000'000'000}),
               "trace timestamp too large for the simulator clock: <memory>");
}

TEST(TraceScheduleTest, BucketedRatesAndLooping) {
  // 8 opportunities in the first 10 ms bucket, none in the second; period
  // 20 ms.  One opportunity = 1504 bytes.
  std::vector<std::int64_t> ms;
  for (int i = 0; i < 8; ++i) ms.push_back(i);
  ms.push_back(20);  // defines the period; folds to bucket 0 of next cycle
  const auto s = RateSchedule::from_trace_ms(ms, from_ms(10));
  const double opp_bps = 1504 * 8 / to_sec(from_ms(10));  // one per bucket
  EXPECT_DOUBLE_EQ(s->rate_at(0), 9 * opp_bps);  // 8 + the folded one
  // Empty bucket floors at one opportunity per bucket.
  EXPECT_DOUBLE_EQ(s->rate_at(from_ms(10)), opp_bps);
  // Loops with period 20 ms.
  EXPECT_DOUBLE_EQ(s->rate_at(from_ms(20)), s->rate_at(0));
  EXPECT_DOUBLE_EQ(s->rate_at(from_ms(37)), s->rate_at(from_ms(17)));
  EXPECT_EQ(s->next_change_after(0), from_ms(10));
  EXPECT_DOUBLE_EQ(s->mean_rate_bps(), (9 * opp_bps + opp_bps) / 2.0);
}

TEST(TraceScheduleTest, CheckedInTracesLoad) {
  const std::string dir = std::string(NIMBUS_SOURCE_DIR) + "/data/traces";
  for (const char* name : {"cellular.trace", "wifi.trace"}) {
    const auto s = RateSchedule::from_trace_file(dir + "/" + name);
    // Sanity: paper-scale cellular/wifi means, deterministic reload.
    EXPECT_GT(s->mean_rate_bps(), 5e6) << name;
    EXPECT_LT(s->mean_rate_bps(), 50e6) << name;
    const auto again = RateSchedule::from_trace_file(dir + "/" + name);
    for (TimeNs t = 0; t < from_sec(30); t += from_ms(500)) {
      EXPECT_DOUBLE_EQ(s->rate_at(t), again->rate_at(t)) << name;
    }
  }
}

// --- link integration ----------------------------------------------------

// A packet mid-serialization when the rate changes finishes at the new
// rate: 10000 B at 8 Mbit/s would take 10 ms; after 5 ms (5000 B done) the
// link doubles to 16 Mbit/s, so the residual 5000 B takes 2.5 ms.
TEST(LinkScheduleIntegrationTest, MidFlightRateChangeRetimesDelivery) {
  sim::EventLoop loop;
  sim::BottleneckLink link(&loop, 8e6,
                           std::make_unique<sim::DropTailQueue>(1 << 20));
  link.set_schedule(RateSchedule::steps(8e6, {{from_ms(5), 16e6}}));
  std::vector<TimeNs> deliveries;
  link.set_delivery_handler(
      [&](const sim::Packet&, TimeNs t) { deliveries.push_back(t); });
  sim::Packet p;
  p.flow_id = 1;
  p.size_bytes = 10000;
  loop.schedule(0, [&]() { link.enqueue(p); });
  loop.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], from_ms(7.5));
  EXPECT_EQ(link.busy_time(), from_ms(7.5));
  EXPECT_DOUBLE_EQ(link.rate_bps(), 16e6);
}

// A change to a *slower* rate stretches the in-flight packet.
TEST(LinkScheduleIntegrationTest, MidFlightSlowdown) {
  sim::EventLoop loop;
  sim::BottleneckLink link(&loop, 16e6,
                           std::make_unique<sim::DropTailQueue>(1 << 20));
  link.set_schedule(RateSchedule::steps(16e6, {{from_ms(2), 8e6}}));
  std::vector<TimeNs> deliveries;
  link.set_delivery_handler(
      [&](const sim::Packet&, TimeNs t) { deliveries.push_back(t); });
  sim::Packet p;
  p.flow_id = 1;
  p.size_bytes = 10000;  // 5 ms at 16 Mbit/s
  loop.schedule(0, [&]() { link.enqueue(p); });
  loop.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // 2 ms at 16 Mbit/s serializes 4000 B; 6000 B left at 8 Mbit/s = 6 ms.
  EXPECT_EQ(deliveries[0], from_ms(8));
  EXPECT_EQ(link.busy_time(), from_ms(8));
}

TEST(LinkScheduleIntegrationTest, InstallRequiresPristineLink) {
  sim::EventLoop loop;
  sim::BottleneckLink link(&loop, 8e6,
                           std::make_unique<sim::DropTailQueue>(1 << 20));
  link.set_schedule(RateSchedule::constant(8e6));
  EXPECT_DEATH(link.set_schedule(RateSchedule::constant(9e6)),
               "schedule already installed");
}

// --- scenario plumbing ---------------------------------------------------

TEST(LinkSpecTest, ScheduledScenarioTracksTheRate) {
  // Cubic protagonist on a 10 -> 30 Mbit/s step: delivered bytes in the
  // fast half must far exceed the slow half.
  exp::ScenarioSpec spec;
  spec.name = "link-spec-steps";
  spec.mu_bps = 10e6;
  spec.duration = from_sec(10);
  spec.protagonist.scheme = "cubic";
  spec.link = exp::LinkSpec::make_steps({{from_sec(5), 30e6}});
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const auto& d = run.built.net->recorder().delivered(1);
  const double slow = static_cast<double>(d.bytes_in(from_sec(1), from_sec(5)));
  const double fast = static_cast<double>(d.bytes_in(from_sec(6), from_sec(10)));
  EXPECT_GT(fast, 1.8 * slow);
  // Sanity: both halves saw actual traffic.
  EXPECT_GT(slow, 1e6);
}

TEST(LinkSpecTest, RandomWalkScenarioSeedDerivation) {
  // Same spec seed -> identical runs; different spec seed -> different
  // walk (and therefore different delivered bytes).
  exp::ScenarioSpec spec;
  spec.name = "link-spec-walk";
  spec.mu_bps = 20e6;
  spec.duration = from_sec(6);
  spec.protagonist.scheme = "cubic";
  spec.link = exp::LinkSpec::random_walk(0.4, from_ms(100), 0.1);
  const auto total = [](const exp::ScenarioSpec& s) {
    const exp::ScenarioRun run = exp::run_scenario(s);
    return run.built.net->recorder().delivered(1).total();
  };
  EXPECT_EQ(total(spec), total(spec));
  const auto reseeded = spec.with_seed(exp::derive_seed(9, 1));
  EXPECT_NE(total(spec), total(reseeded));
}

// --- golden: constant schedules reproduce PR 4 outputs -------------------

// The same PIE scenario scenario_golden_test.cc pins, but with an
// explicitly installed RateSchedule::constant: the schedule machinery in
// the link must leave every delivered byte, drop, and probe sample
// byte-identical to the plain fixed-rate link (PR 4 values).
TEST(LinkScheduleGoldenTest, ConstantScheduleReproducesPr4PieOutputs) {
  exp::ScenarioSpec spec;
  spec.name = "golden/pie-const-schedule";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(10);
  spec.queue = exp::QueueKind::kPie;
  spec.buffer_bdp = 4.0;
  spec.pie_target_delay = from_ms(15);
  spec.protagonist.scheme = "cubic";
  spec.cross.push_back(exp::CrossSpec::poisson(24e6, 2));

  exp::BuiltScenario built = exp::build_network(spec);
  built.net->link().set_schedule(sim::RateSchedule::constant(spec.mu_bps));
  built.net->run_until(spec.duration);
  const auto& rec = built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 15463500);
  EXPECT_EQ(rec.delivered(2).total(), 28768500);
  EXPECT_EQ(built.net->link().dropped_packets(), 2210u);
  EXPECT_DOUBLE_EQ(
      rec.probed_queue_delay().mean_in(from_sec(2), from_sec(10)).value(),
      0.88875000000000004);
}

// Same pin for the DropTail + video-cross golden (the second PR 4 golden
// configuration), via the LinkSpec plumbing this time: a kConstant spec
// must not install any schedule and reproduce PR 4 exactly.
TEST(LinkScheduleGoldenTest, ConstantLinkSpecReproducesPr4VideoOutputs) {
  exp::ScenarioSpec spec;
  spec.name = "golden/video-const-schedule";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(10);
  spec.protagonist.scheme = "cubic";
  exp::CrossSpec video;
  video.kind = exp::CrossSpec::Kind::kVideo;
  video.rate_bps = 8e6;
  spec.cross.push_back(video);
  spec.link = exp::LinkSpec::constant();
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(run.built.net->link().schedule(), nullptr);
  EXPECT_EQ(rec.delivered(1).total(), 34962000);
  EXPECT_EQ(rec.delivered(2).total(), 24282000);
}

}  // namespace
}  // namespace nimbus
