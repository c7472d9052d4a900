// Tests for exp::RunConfig (exp/run_config.h), the one parse of the
// NIMBUS_* environment.  The tables below hold, for every knob, its
// default when unset and when empty, the values it accepts, and the values
// it rejects — a rejection must CHECK-fail naming the variable, so a typo
// never silently means a default.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "exp/run_config.h"
#include "exp/runner.h"

namespace nimbus::exp {
namespace {

namespace fs = std::filesystem;

std::string str(bool b) { return b ? "1" : "0"; }

// Every knob from_env reads, with the RunConfig field it sets rendered as
// text, so one table covers ints, enums, paths and flags alike.
struct Knob {
  const char* var;
  std::string (*field)(const RunConfig&);
  bool path;  // any non-empty value is accepted
};

const Knob kKnobs[] = {
    {"NIMBUS_JOBS", [](const RunConfig& c) { return std::to_string(c.jobs); },
     false},
    {"NIMBUS_CACHE",
     [](const RunConfig& c) {
       return std::to_string(static_cast<int>(c.cache_mode));
     },
     false},
    {"NIMBUS_CACHE_DIR", [](const RunConfig& c) { return c.cache_dir; },
     true},
    {"NIMBUS_SHARD",
     [](const RunConfig& c) {
       return std::to_string(c.shard.k) + "/" + std::to_string(c.shard.n);
     },
     false},
    {"NIMBUS_CELL_MAX_EVENTS",
     [](const RunConfig& c) { return std::to_string(c.budget.max_events); },
     false},
    {"NIMBUS_CELL_WALL_SEC",
     [](const RunConfig& c) {
       return std::to_string(c.budget.max_wall_seconds);
     },
     false},
    {"NIMBUS_OBS",
     [](const RunConfig& c) {
       return std::to_string(static_cast<int>(c.obs.mode));
     },
     false},
    {"NIMBUS_OBS_DIR", [](const RunConfig& c) { return c.obs.dir; }, true},
    {"NIMBUS_OBS_RING",
     [](const RunConfig& c) { return std::to_string(c.obs.ring_capacity); },
     false},
    {"NIMBUS_BENCH_FULL", [](const RunConfig& c) { return str(c.full_run); },
     false},
    {"NIMBUS_SHAPE_STRICT",
     [](const RunConfig& c) { return str(c.shape_strict); }, false},
    {"NIMBUS_TRACE_DIR", [](const RunConfig& c) { return c.trace_dir; },
     true},
};

const Knob& knob(const std::string& var) {
  for (const Knob& k : kKnobs) {
    if (var == k.var) return k;
  }
  ADD_FAILURE() << "not a RunConfig knob: " << var;
  return kKnobs[0];
}

void clear_knobs() {
  for (const Knob& k : kKnobs) ::unsetenv(k.var);
}

// from_env with `var` = `value` (nullptr: unset) and every other knob unset.
RunConfig parse(const char* var, const char* value) {
  clear_knobs();
  if (value != nullptr) ::setenv(var, value, 1);
  RunConfig c = RunConfig::from_env();
  clear_knobs();
  return c;
}

struct Row {
  const char* var;
  const char* value;
  std::string expect;  // the field as text, or the CHECK message (a regex)
};

// Unset and empty both mean the default.  An empty path used to be taken
// literally: NIMBUS_CACHE_DIR= rooted the cache at "" and published
// entries under /<fingerprint>/, and NIMBUS_TRACE_DIR= looked for traces
// at the filesystem root.
std::vector<Row> default_rows() {
  return {
      {"NIMBUS_JOBS", nullptr, std::to_string(resolve_jobs(0))},
      {"NIMBUS_CACHE", nullptr, "0"},  // off
      {"NIMBUS_CACHE_DIR", nullptr, ".nimbus-cache"},
      {"NIMBUS_SHARD", nullptr, "1/1"},
      {"NIMBUS_CELL_MAX_EVENTS", nullptr, "0"},  // unlimited
      {"NIMBUS_CELL_WALL_SEC", nullptr, std::to_string(0.0)},
      {"NIMBUS_OBS", nullptr, "0"},  // off
      {"NIMBUS_OBS_DIR", nullptr, ""},
      {"NIMBUS_OBS_RING", nullptr, "16384"},
      {"NIMBUS_BENCH_FULL", nullptr, "0"},
      {"NIMBUS_SHAPE_STRICT", nullptr, "0"},
      {"NIMBUS_TRACE_DIR", nullptr, "data/traces"},
  };
}

const std::vector<Row> kAccepted = {
    {"NIMBUS_JOBS", "5", "5"},
    {"NIMBUS_CACHE", "off", "0"},
    {"NIMBUS_CACHE", "read", "1"},
    {"NIMBUS_CACHE", "readwrite", "2"},
    {"NIMBUS_CACHE_DIR", "/tmp/c", "/tmp/c"},
    {"NIMBUS_SHARD", "2/5", "2/5"},
    {"NIMBUS_CELL_MAX_EVENTS", "250000", "250000"},
    {"NIMBUS_CELL_WALL_SEC", "1.5", std::to_string(1.5)},
    {"NIMBUS_OBS", "off", "0"},
    {"NIMBUS_OBS", "counters", "1"},
    {"NIMBUS_OBS", "trace", "2"},
    {"NIMBUS_OBS_DIR", "/tmp/o", "/tmp/o"},
    {"NIMBUS_OBS_RING", "4096", "4096"},
    {"NIMBUS_OBS_RING", "1e3", "1000"},
    {"NIMBUS_BENCH_FULL", "1", "1"},
    {"NIMBUS_SHAPE_STRICT", "0", "0"},
    {"NIMBUS_SHAPE_STRICT", "1", "1"},
    {"NIMBUS_TRACE_DIR", "/tmp/t", "/tmp/t"},
};

// Path knobs accept any non-empty value, so they have no rows here.
const std::vector<Row> kRejected = {
    {"NIMBUS_JOBS", "4x", "NIMBUS_JOBS must be a positive integer"},
    {"NIMBUS_JOBS", "0", "NIMBUS_JOBS"},
    {"NIMBUS_CACHE", "rw", "NIMBUS_CACHE must be off\\|read\\|readwrite"},
    {"NIMBUS_SHARD", "3/2", "NIMBUS_SHARD must be k/n"},
    {"NIMBUS_CELL_MAX_EVENTS", "abc",
     "NIMBUS_CELL_MAX_EVENTS must be a positive integer"},
    {"NIMBUS_CELL_WALL_SEC", "2s",
     "NIMBUS_CELL_WALL_SEC must be a positive number"},
    {"NIMBUS_CELL_WALL_SEC", "-1", "NIMBUS_CELL_WALL_SEC"},
    {"NIMBUS_OBS", "on", "NIMBUS_OBS must be off\\|counters\\|trace"},
    {"NIMBUS_OBS_RING", "4x", "NIMBUS_OBS_RING must be a positive integer"},
    {"NIMBUS_OBS_RING", "2.5", "NIMBUS_OBS_RING"},
    {"NIMBUS_OBS_RING", "0", "NIMBUS_OBS_RING"},
    {"NIMBUS_OBS_RING", "99999999999999999999", "NIMBUS_OBS_RING"},
    {"NIMBUS_BENCH_FULL", "yes",
     "NIMBUS_BENCH_FULL must be unset, empty, 0 or 1"},
    {"NIMBUS_SHAPE_STRICT", "true",
     "NIMBUS_SHAPE_STRICT must be unset, empty, 0 or 1"},
    {"NIMBUS_SHAPE_STRICT", "10", "NIMBUS_SHAPE_STRICT"},
};

TEST(RunConfigTest, TablesCoverEveryKnob) {
  EXPECT_EQ(std::size(kKnobs), 12u);
  std::set<std::string> defaulted, accepted, rejected;
  for (const Row& r : default_rows()) defaulted.insert(r.var);
  for (const Row& r : kAccepted) accepted.insert(knob(r.var).var);
  for (const Row& r : kRejected) rejected.insert(knob(r.var).var);
  for (const Knob& k : kKnobs) {
    EXPECT_TRUE(defaulted.count(k.var)) << k.var;
    EXPECT_TRUE(accepted.count(k.var)) << k.var;
    EXPECT_EQ(rejected.count(k.var), k.path ? 0u : 1u) << k.var;
  }
}

TEST(RunConfigTest, UnsetAndEmptyMeanTheDefault) {
  for (const Row& r : default_rows()) {
    const Knob& k = knob(r.var);
    EXPECT_EQ(k.field(parse(r.var, nullptr)), r.expect) << r.var << " unset";
    EXPECT_EQ(k.field(parse(r.var, "")), r.expect) << r.var << " empty";
  }
}

TEST(RunConfigTest, AcceptedValuesParse) {
  for (const Row& r : kAccepted) {
    EXPECT_EQ(knob(r.var).field(parse(r.var, r.value)), r.expect)
        << r.var << "=" << r.value;
  }
}

TEST(RunConfigDeathTest, RejectedValuesFailNamingTheVariable) {
  for (const Row& r : kRejected) {
    EXPECT_DEATH((void)parse(r.var, r.value), r.expect)
        << r.var << "=" << r.value;
  }
}

// A default-constructed RunConfig reads nothing and runs hermetically.
TEST(RunConfigTest, DefaultIsHermetic) {
  const RunConfig c;
  EXPECT_EQ(c.jobs, 1);
  EXPECT_EQ(c.cache_mode, ResultCache::Mode::kOff);
  EXPECT_FALSE(c.shard.active());
  EXPECT_FALSE(c.budget.limited());
  EXPECT_EQ(c.obs.mode, obs::Mode::kOff);
}

TEST(RunConfigTest, ExplicitJobCountReachesTheRunner) {
  EXPECT_EQ(ParallelRunner({/*jobs=*/3, /*serial=*/false}).jobs(), 3);
  EXPECT_GE(ParallelRunner({/*jobs=*/0, /*serial=*/false}).jobs(), 1);
}

// End to end: with NIMBUS_CACHE_DIR empty, a readwrite sweep stores its
// cell under the default root in the working directory.
TEST(RunConfigDeathTest, EmptyCacheDirCachesUnderTheDefaultRoot) {
  const fs::path tmp = fs::temp_directory_path() /
                       ("nimbus-run-config-" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  const auto sweep_in_tmp = [&tmp] {
    fs::current_path(tmp);
    ::setenv("NIMBUS_CACHE", "readwrite", 1);
    ::setenv("NIMBUS_CACHE_DIR", "", 1);
    ::setenv("NIMBUS_JOBS", "1", 1);
    ScenarioSpec spec;
    spec.name = "run-config/empty-cache-dir";
    spec.mu_bps = 24e6;
    spec.duration = from_sec(1);
    spec.protagonist.enabled = false;
    spec.cross.push_back(CrossSpec::cbr(8e6, 2));
    run_sweep(
        {spec},
        [](const ScenarioSpec&, ScenarioRun&) {
          return CellResult::scalar(1.0);
        },
        nullptr, nullptr, RunConfig::from_env());
    std::size_t cells = 0;
    for (const auto& e :
         fs::recursive_directory_iterator(tmp / ".nimbus-cache")) {
      cells += e.path().extension() == ".cell";
    }
    std::exit(cells == 1 ? 0 : 1);
  };
  EXPECT_EXIT(sweep_in_tmp(), ::testing::ExitedWithCode(0), "");
  fs::remove_all(tmp);
}

}  // namespace
}  // namespace nimbus::exp
