// Declarative experiment scenarios.
//
// A ScenarioSpec describes one single-bottleneck experiment — link rate,
// propagation RTT, buffer depth, queue discipline, the protagonist flow
// (any scheme from exp::make_scheme or a fully configured Nimbus), a phase
// schedule of cross traffic, and an optional heavy-tailed flow workload —
// and build_network() assembles a ready-to-run sim::Network from it.
// Specs are plain values: cheap to copy, sweep over, and hand to
// exp::run_scenario (one run) or exp::run_sweep (exp/runner.h), which runs
// batches of them across threads.  A spec is the only way benches,
// examples and scenario tests describe a network; build_network() is the
// only way to assemble one.  A field exists only if some experiment sets
// it: values no experiment varies (the sine quantum, the Copa poll
// interval, the flow workload's RTT and elastic threshold) are named
// constants beside the code that reads them.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/nimbus.h"
#include "exp/ground_truth.h"
#include "obs/telemetry.h"
#include "sim/link.h"
#include "sim/network.h"
#include "traffic/flow_workload.h"

namespace nimbus::exp {

inline constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

// ---------------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------------

/// Default scenario base seed.  Under this base, flows keep the historical
/// per-flow seed formulas (id*13+5 for scheme cross flows, id*31+3 for
/// Poisson sources, ...), so scenarios built from default-seeded specs
/// reproduce the pre-scenario-layer bench output bit for bit.
///
/// Sweep caveat: base == 1 selects this legacy seeding family, so do not
/// sweep sequential small integers (`with_seed(1), with_seed(2), ...`) —
/// the first sample would come from a structurally different family.
/// Sweep via derive_seed(base, i) (exp/runner.h), whose mixed outputs
/// avoid the sentinel.
inline constexpr std::uint64_t kDefaultBaseSeed = 1;

/// splitmix64 finalizer: the standard avalanche mix.
std::uint64_t mix_seed(std::uint64_t x);

/// Per-flow seed under scenario base seed `base`: the legacy formula value
/// when base == kDefaultBaseSeed, otherwise a mix of the two streams.
std::uint64_t flow_seed(std::uint64_t base, std::uint64_t legacy);

// ---------------------------------------------------------------------------
// Declarative spec.
// ---------------------------------------------------------------------------

/// One cross-traffic entry.  Entries with start/stop times form a phase
/// schedule; `count` replicates an entry as consecutive flow ids.
struct CrossSpec {
  enum class Kind {
    kScheme,       // congestion-controlled flow via make_scheme(scheme)
    kConstWindow,  // fixed-window transport (window_pkts)
    kPoisson,      // Poisson packet source at rate_bps
    kCbr,          // constant-bit-rate source at rate_bps
    kVideo,        // DASH-style video client at rate_bps
    kNimbus,       // additional Nimbus flow built from `nimbus` (the
                   // multi-flow experiments; pointer lands in
                   // BuiltScenario::nimbus_cross)
  };

  Kind kind = Kind::kScheme;
  sim::FlowId id = 0;          // first flow id; 0 = allocated by the network
  int count = 1;               // identical flows at ids id, id+1, ...
  std::string scheme = "cubic";
  double rate_bps = 0.0;       // kPoisson / kCbr / kVideo bitrate
  int window_pkts = 400;       // kConstWindow
  core::Nimbus::Config nimbus; // kNimbus
  TimeNs start = 0;
  TimeNs stop = kNever;
  TimeNs rtt = 0;              // 0 = scenario RTT
  /// 0 = derived (see flow_seed).  With count > 1, replica k uses
  /// seed + k (explicit) or a k-varied derivation, so replicas never
  /// share an RNG stream.
  std::uint64_t seed = 0;

  static CrossSpec flow(const std::string& scheme, sim::FlowId id,
                        TimeNs start = 0, TimeNs stop = kNever);
  static CrossSpec poisson(double rate_bps, sim::FlowId id, TimeNs start = 0,
                           TimeNs stop = kNever);
  static CrossSpec cbr(double rate_bps, sim::FlowId id, TimeNs start = 0,
                       TimeNs stop = kNever);
  static CrossSpec nimbus_flow(const core::Nimbus::Config& cfg,
                               sim::FlowId id, std::uint64_t seed,
                               TimeNs start = 0, TimeNs stop = kNever);
};

/// The protagonist (measured) flow.
struct ProtagonistSpec {
  bool enabled = true;
  std::string scheme = "nimbus";
  /// When true, a core::Nimbus is built directly from `nimbus` (Nimbus
  /// knobs under the experiment's control).  When false,
  /// make_scheme(scheme) is used.
  bool use_nimbus_config = false;
  core::Nimbus::Config nimbus;  // known_mu_bps 0 = filled from the scenario
  /// Hand the scenario's link rate to the protagonist as the known mu —
  /// on both paths: make_scheme's known_mu_bps argument, and the fill of
  /// nimbus.known_mu_bps when it is 0.  Set false for online-estimation
  /// experiments (schemes.h: "0 lets them estimate it online"), or a
  /// zero known_mu_bps is silently replaced with the exact rate.
  bool known_mu = true;
  sim::FlowId id = 1;
  TimeNs rtt = 0;               // 0 = scenario RTT
  TimeNs start = 0;
  std::uint64_t seed = 0;       // 0 = derived (see flow_seed)
};

enum class QueueKind { kDropTail, kPie };

/// The bottleneck's rate behaviour over time (sim/link_schedule.h).  The
/// default (kConstant) is exactly the fixed-µ link every pre-existing
/// scenario ran on — build_network installs no schedule object at all, so
/// the event stream is bit-identical.  Any other kind varies µ(t) around
/// ScenarioSpec::mu_bps (steps are absolute rates; sine/random-walk treat
/// mu_bps as the mean; a trace replaces µ entirely — set mu_bps to the
/// trace's mean, see trace_mean_rate_bps, so buffer sizing and known-µ
/// stay consistent).  Schedules compose with every queue kind, but note
/// PIE estimates departure delay from its configured constant rate, so a
/// strongly varying µ degrades its delay estimate (as it would a real
/// deployment tuned for the wrong rate).
struct LinkSpec {
  enum class Kind { kConstant, kSteps, kSine, kRandomWalk, kTrace };

  Kind kind = Kind::kConstant;

  // kSteps: piecewise-constant breakpoints; mu_bps applies before the
  // first one.  Usable per phase: align breakpoints with cross-traffic
  // phase boundaries to move µ between phases.
  std::vector<sim::RateStep> steps;

  // kSine / kRandomWalk: peak deviation as a fraction of mu_bps (sine
  // amplitude; random-walk clamp to mu_bps·[1−a, 1+a]).
  double amplitude_frac = 0.25;

  // kSine (quantised to make_link_schedule's 100 ms grid).
  TimeNs period = from_sec(10);

  // kRandomWalk (seeded from the scenario seed, stream 97).
  TimeNs step_interval = from_ms(200);
  double step_frac = 0.05;   // per-step max move, fraction of mu_bps

  // kTrace: Mahimahi .trace file (ms-granularity delivery opportunities of
  // 1504 B each), bucketed into trace_bucket-wide constant-rate windows.
  std::string trace_path;
  TimeNs trace_bucket = sim::RateSchedule::kDefaultTraceBucket;

  static LinkSpec constant() { return {}; }
  static LinkSpec make_steps(std::vector<sim::RateStep> s);
  static LinkSpec sine(double amplitude_frac, TimeNs period);
  static LinkSpec random_walk(double amplitude_frac,
                              TimeNs step_interval = from_ms(200),
                              double step_frac = 0.05);
  static LinkSpec trace(std::string path);
};

/// FlowWorkload::Config with seed = 0, meaning "derive from the scenario
/// base seed" (FlowWorkload's own default of 1234 would make the derive
/// check unreachable).
traffic::FlowWorkload::Config unseeded_workload_config();

/// Per-direction path impairments (sim/impairment.h): Gilbert–Elliott
/// bursty loss, jitter/reordering, duplication, blackouts/flaps.  The
/// forward config filters every packet offered to the bottleneck (data and
/// cross traffic share the impaired path); the reverse config filters the
/// ACK return path of every transport flow.  Defaults are all-off, in
/// which case build_network installs no stage and the event stream is
/// bit-identical to the unimpaired simulator.  A zero seed in either
/// config is replaced with a flow_seed derivation from the scenario seed
/// (streams 211 forward / 223 reverse), so seed sweeps vary the
/// impairment realizations too.
struct ImpairmentSpec {
  sim::ImpairmentConfig forward;
  sim::ImpairmentConfig reverse;

  bool any() const { return forward.any() || reverse.any(); }
};

struct ScenarioSpec {
  std::string name;

  // Bottleneck.
  double mu_bps = 96e6;
  LinkSpec link;                     // µ(t); default = constant mu_bps
  TimeNs rtt = from_ms(50);          // protagonist propagation RTT
  double buffer_bdp = 2.0;
  std::int64_t buffer_bytes = 0;     // >0 overrides buffer_bdp
  QueueKind queue = QueueKind::kDropTail;
  TimeNs pie_target_delay = from_ms(15);
  double random_loss = 0.0;
  /// RNG stream for random_loss; 0 = derive from the scenario seed
  /// (legacy stream 7 under the default base).  Explicit values let path
  /// experiments keep their historical seed*13+7 formula.
  std::uint64_t random_loss_seed = 0;
  sim::PolicerConfig policer;
  ImpairmentSpec impairment;

  ProtagonistSpec protagonist;
  std::vector<CrossSpec> cross;

  // Heavy-tailed flow workload (section 8.1 WAN cross traffic).  The seed
  // defaults to 0 here (= derive from the scenario seed; legacy stream
  // 1234 under the default base) so base-seed sweeps vary the workload.
  bool workload_enabled = false;
  traffic::FlowWorkload::Config workload = unseeded_workload_config();

  TimeNs duration = from_sec(60);
  std::uint64_t seed = kDefaultBaseSeed;

  /// When the protagonist is a Copa flow, poll its mode into
  /// ScenarioRun::mode_log every 10 ms (attach_copa_poller; the Fig. 14/23
  /// comparisons score Copa's classifier).  Off by default: the poller
  /// schedules events, and scenarios that don't need it should not pay
  /// for — or have their event stream reshaped by — the extra ticks.
  bool log_copa_mode = false;

  /// Returns a copy with `seed` replaced (sweep convenience).
  ScenarioSpec with_seed(std::uint64_t s) const;
};

/// A built scenario: the network plus handles into its interesting parts.
struct BuiltScenario {
  std::unique_ptr<sim::Network> net;
  sim::TransportFlow* protagonist = nullptr;  // null if no protagonist
  core::Nimbus* nimbus = nullptr;  // null unless the protagonist is a Nimbus
  /// kNimbus cross entries, in spec order (multi-flow experiments probe
  /// roles/modes across all flows).
  std::vector<core::Nimbus*> nimbus_cross;
  /// Flow ids of the kNimbus cross entries, parallel to nimbus_cross
  /// (decision-trace records are tagged with them).
  std::vector<sim::FlowId> nimbus_cross_ids;
  std::unique_ptr<traffic::FlowWorkload> workload;  // null unless enabled

  sim::Network& network() { return *net; }
};

/// Assembles a ready-to-run network from the spec (does not run it).
BuiltScenario build_network(const ScenarioSpec& spec);

/// Builds the spec's µ(t) schedule (seed resolution included): the same
/// object build_network installs on the link for non-constant kinds.
/// Ground-truth scoring builds its own copy to replay the identical µ(t)
/// trajectory after the run.
std::unique_ptr<sim::RateSchedule> make_link_schedule(const ScenarioSpec& spec);

/// Mean rate of a Mahimahi trace at the default trace bucket — the
/// value to put in ScenarioSpec::mu_bps for kTrace scenarios so buffers and
/// known-µ are sized off the trace's actual average capacity.
double trace_mean_rate_bps(const std::string& path);

/// A completed scenario run.  The logs are populated (and non-null) when
/// the protagonist is a Nimbus flow — mode decisions, smoothed eta and raw
/// single-window eta (both gated on detector_ready), and the ungated
/// cross-traffic estimate z(t) and base rate S(t).  With
/// spec.log_copa_mode, mode_log instead records the Copa protagonist's
/// polled mode.
struct ScenarioRun {
  BuiltScenario built;
  std::unique_ptr<ModeLog> mode_log;
  std::unique_ptr<util::TimeSeries> eta_log;
  std::unique_ptr<util::TimeSeries> eta_raw_log;
  std::unique_ptr<util::TimeSeries> z_log;
  std::unique_ptr<util::TimeSeries> rate_log;

  /// Per-run telemetry (ObsConfig mode counters or trace); null when off.
  /// Never written to stdout: trace files go to ObsConfig::dir, counter
  /// roll-ups to CellResult/manifests.
  std::unique_ptr<obs::Telemetry> telemetry;

  /// Why the run stopped early, if a RunBudget tripped (kNone otherwise).
  sim::EventLoop::BudgetStop budget_stop() const {
    return built.net->loop().budget_stop();
  }
};

/// Pre-run hook: runs after the network is assembled and the standard logs
/// are attached, before the event loop starts.  Benches use it to schedule
/// custom probes (e.g. sampling Nimbus roles mid-run).
using ScenarioSetup = std::function<void(const ScenarioSpec&, BuiltScenario&)>;

/// Watchdog limits for one scenario run (EventLoop::set_run_budget): stop
/// the event loop after `max_events` simulated events or `max_wall_seconds`
/// of real time, whichever trips first; 0 = unlimited.  A tripped run
/// returns normally with the loop short of spec.duration — callers detect
/// it via run.budget_stop() and must not score the truncated logs.
struct RunBudget {
  std::uint64_t max_events = 0;
  double max_wall_seconds = 0.0;

  bool limited() const { return max_events != 0 || max_wall_seconds > 0.0; }
};

/// Telemetry settings for one run (RunConfig::obs); the default is off.
struct ObsConfig {
  obs::Mode mode = obs::Mode::kOff;
  std::string dir;  // trace and manifest artifacts ("" = none)
  std::size_t ring_capacity = obs::FlightRecorder::kDefaultCapacity;
};

/// build_network + attach logs + run_until(spec.duration), with the
/// telemetry `obs` asks for (off by default).
ScenarioRun run_scenario(const ScenarioSpec& spec,
                         const ScenarioSetup& setup = nullptr,
                         const RunBudget& budget = {},
                         const ObsConfig& obs = {});

/// Deterministic artifact stem for one (spec, seed) cell:
/// "<sanitized-name>-<hash16>-s<seed>" — the hash is spec_hash for
/// cacheable specs, an FNV of name+seed otherwise, so parallel sweeps
/// never collide on file names.
std::string obs_artifact_stem(const ScenarioSpec& spec);

/// Writes run.telemetry's flight recorder to
/// `<dir>/<stem>.trace.json` (Chrome trace-event / Perfetto) and
/// `<dir>/<stem>.trace.csv`.  No-op when telemetry or dir is absent.
/// Returns the JSON path ("" when skipped).
std::string export_trace_artifacts(const ScenarioSpec& spec,
                                   const ScenarioRun& run,
                                   const std::string& dir);

// ---------------------------------------------------------------------------
// Canned experiments.
// ---------------------------------------------------------------------------

/// Classification-accuracy scenario: a Nimbus protagonist against one
/// cross-traffic kind.  `cross_kind` is one of "none", "poisson", "cbr",
/// "newreno", "cubic", "mix" (half Poisson, half NewReno).  `seed` feeds
/// the elastic cross flow; 0 means "derive from the scenario base seed".
ScenarioSpec accuracy_scenario(const std::string& cross_kind, double mu,
                               TimeNs nimbus_rtt, TimeNs cross_rtt,
                               double cross_share, TimeNs duration,
                               std::uint64_t seed,
                               const core::Nimbus::Config& cfg = {},
                               double buf_bdp = 2.0);

/// Scores a finished accuracy run (warmup-skipped) against a constant
/// ground truth derived from the spec itself via spec_cross_is_elastic.
double score_accuracy(const ScenarioRun& run, const ScenarioSpec& spec);

/// True if the spec's cross schedule contains elastic (ACK-clocked) cross
/// traffic: scheme, Nimbus, or fixed-window flows.  Raw sources (Poisson/
/// CBR) are inelastic.  Video clients are not classified here — they can
/// be either depending on bitrate vs capacity (Fig. 11), so specs mixing
/// video with accuracy scoring must pass the truth explicitly.
bool spec_cross_is_elastic(const ScenarioSpec& spec);

}  // namespace nimbus::exp
