#include "exp/scenario.h"

#include <cstdio>
#include <utility>

#include "cc/const_window.h"
#include "cc/copa.h"
#include "exp/schemes.h"
#include "exp/spec_canon.h"
#include "sim/pie.h"
#include "traffic/raw_sources.h"
#include "traffic/video_source.h"
#include "util/check.h"

namespace nimbus::exp {

// ---------------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t flow_seed(std::uint64_t base, std::uint64_t legacy) {
  if (base == kDefaultBaseSeed) return legacy;
  return mix_seed(base ^ mix_seed(legacy));
}

// ---------------------------------------------------------------------------
// Spec construction helpers.
// ---------------------------------------------------------------------------

CrossSpec CrossSpec::flow(const std::string& scheme, sim::FlowId id,
                          TimeNs start, TimeNs stop) {
  CrossSpec c;
  c.kind = Kind::kScheme;
  c.scheme = scheme;
  c.id = id;
  c.start = start;
  c.stop = stop;
  return c;
}

CrossSpec CrossSpec::poisson(double rate_bps, sim::FlowId id, TimeNs start,
                             TimeNs stop) {
  CrossSpec c;
  c.kind = Kind::kPoisson;
  c.rate_bps = rate_bps;
  c.id = id;
  c.start = start;
  c.stop = stop;
  return c;
}

CrossSpec CrossSpec::cbr(double rate_bps, sim::FlowId id, TimeNs start,
                         TimeNs stop) {
  CrossSpec c;
  c.kind = Kind::kCbr;
  c.rate_bps = rate_bps;
  c.id = id;
  c.start = start;
  c.stop = stop;
  return c;
}

CrossSpec CrossSpec::nimbus_flow(const core::Nimbus::Config& cfg,
                                 sim::FlowId id, std::uint64_t seed,
                                 TimeNs start, TimeNs stop) {
  CrossSpec c;
  c.kind = Kind::kNimbus;
  c.nimbus = cfg;
  c.id = id;
  c.seed = seed;
  c.start = start;
  c.stop = stop;
  return c;
}

LinkSpec LinkSpec::make_steps(std::vector<sim::RateStep> s) {
  LinkSpec l;
  l.kind = Kind::kSteps;
  l.steps = std::move(s);
  return l;
}

LinkSpec LinkSpec::sine(double amplitude_frac, TimeNs period) {
  LinkSpec l;
  l.kind = Kind::kSine;
  l.amplitude_frac = amplitude_frac;
  l.period = period;
  return l;
}

LinkSpec LinkSpec::random_walk(double amplitude_frac, TimeNs step_interval,
                               double step_frac) {
  LinkSpec l;
  l.kind = Kind::kRandomWalk;
  l.amplitude_frac = amplitude_frac;
  l.step_interval = step_interval;
  l.step_frac = step_frac;
  return l;
}

LinkSpec LinkSpec::trace(std::string path) {
  LinkSpec l;
  l.kind = Kind::kTrace;
  l.trace_path = std::move(path);
  return l;
}

traffic::FlowWorkload::Config unseeded_workload_config() {
  traffic::FlowWorkload::Config wc;
  wc.seed = 0;
  return wc;
}

ScenarioSpec ScenarioSpec::with_seed(std::uint64_t s) const {
  ScenarioSpec copy = *this;
  copy.seed = s;
  return copy;
}

// ---------------------------------------------------------------------------
// Assembly.
// ---------------------------------------------------------------------------

namespace {

std::unique_ptr<sim::Network> make_bottleneck(const ScenarioSpec& spec) {
  const std::int64_t buf_bytes =
      spec.buffer_bytes > 0
          ? spec.buffer_bytes
          : sim::buffer_bytes_for_bdp(spec.mu_bps, spec.rtt, spec.buffer_bdp);
  std::unique_ptr<sim::Network> net;
  if (spec.queue == QueueKind::kPie) {
    sim::PieQueue::Config pc;
    pc.capacity_bytes = buf_bytes;
    pc.link_rate_bps = spec.mu_bps;
    pc.target_delay = spec.pie_target_delay;
    pc.seed = flow_seed(spec.seed, pc.seed);
    net = std::make_unique<sim::Network>(spec.mu_bps,
                                         std::make_unique<sim::PieQueue>(pc));
  } else {
    net = std::make_unique<sim::Network>(spec.mu_bps, buf_bytes);
  }
  if (spec.random_loss > 0) {
    net->link().set_random_loss(spec.random_loss,
                                spec.random_loss_seed != 0
                                    ? spec.random_loss_seed
                                    : flow_seed(spec.seed, /*legacy=*/7));
  }
  if (spec.policer.enabled) net->link().set_policer(spec.policer);
  if (spec.impairment.forward.any()) {
    sim::ImpairmentConfig c = spec.impairment.forward;
    if (c.seed == 0) c.seed = flow_seed(spec.seed, /*legacy=*/211);
    net->link().set_impairment(std::make_unique<sim::ImpairmentStage>(c));
  }
  if (spec.impairment.reverse.any()) {
    sim::ImpairmentConfig c = spec.impairment.reverse;
    if (c.seed == 0) c.seed = flow_seed(spec.seed, /*legacy=*/223);
    net->set_ack_impairment(std::make_unique<sim::ImpairmentStage>(c));
  }
  // Non-constant µ(t): install the schedule before any traffic exists.
  // The constant default installs nothing at all, keeping pre-existing
  // scenarios' event streams bit-identical.
  if (spec.link.kind != LinkSpec::Kind::kConstant) {
    net->link().set_schedule(make_link_schedule(spec));
  }
  return net;
}

void add_protagonist_from_spec(const ScenarioSpec& spec, BuiltScenario& out) {
  const ProtagonistSpec& p = spec.protagonist;
  if (!p.enabled) return;
  sim::TransportFlow::Config fc;
  fc.id = p.id;
  fc.rtt_prop = p.rtt > 0 ? p.rtt : spec.rtt;
  fc.start_time = p.start;
  std::unique_ptr<sim::CcAlgorithm> cc;
  if (p.use_nimbus_config) {
    core::Nimbus::Config cfg = p.nimbus;
    if (cfg.known_mu_bps == 0.0 && p.known_mu) cfg.known_mu_bps = spec.mu_bps;
    cc = std::make_unique<core::Nimbus>(cfg);
    const std::uint64_t seed =
        p.seed != 0 ? p.seed : flow_seed(spec.seed, p.id * 7 + 1);
    fc.seed = seed != 0 ? seed : p.id * 7 + 1;
  } else {
    cc = make_scheme(p.scheme, p.known_mu ? spec.mu_bps : 0.0);
    fc.seed = p.seed != 0 ? p.seed : flow_seed(spec.seed, fc.seed);
  }
  out.net->recorder().track_flow(p.id);
  out.protagonist = out.net->add_flow(fc, std::move(cc));
  out.nimbus = dynamic_cast<core::Nimbus*>(&out.protagonist->cc());
}

// Derived seed for kinds whose legacy default seed carries no id term
// (const-window, video): the legacy value survives under the default base,
// and the id decorrelates streams under swept bases.
std::uint64_t derived_seed_with_id(std::uint64_t base, std::uint64_t legacy,
                                   std::uint64_t id) {
  if (base == kDefaultBaseSeed) return legacy;
  return mix_seed(base ^ mix_seed(legacy) ^ mix_seed(id << 32));
}

void add_cross_entry(const ScenarioSpec& spec, const CrossSpec& c,
                     BuiltScenario& out) {
  sim::Network& net = *out.net;
  for (int k = 0; k < c.count; ++k) {
    const auto resolve_id = [&]() -> sim::FlowId {
      return c.id != 0 ? c.id + k : net.next_flow_id();
    };
    const TimeNs rtt = c.rtt > 0 ? c.rtt : spec.rtt;
    switch (c.kind) {
      case CrossSpec::Kind::kScheme: {
        const sim::FlowId id = resolve_id();
        sim::TransportFlow::Config fc;
        fc.id = id;
        fc.rtt_prop = rtt;
        fc.start_time = c.start;
        fc.stop_time = c.stop;
        fc.seed =
            c.seed != 0 ? c.seed + k : flow_seed(spec.seed, id * 13 + 5);
        net.add_flow(fc, make_scheme(c.scheme));
        break;
      }
      case CrossSpec::Kind::kConstWindow: {
        sim::TransportFlow::Config fc;
        fc.id = resolve_id();
        fc.rtt_prop = rtt;
        fc.start_time = c.start;
        fc.stop_time = c.stop;
        fc.seed = c.seed != 0
                      ? c.seed + k
                      : derived_seed_with_id(spec.seed, fc.seed + k, fc.id);
        net.add_flow(fc, std::make_unique<cc::ConstWindow>(c.window_pkts));
        break;
      }
      case CrossSpec::Kind::kPoisson: {
        const sim::FlowId id = resolve_id();
        traffic::PoissonSource::Config pc;
        pc.id = id;
        pc.mean_rate_bps = c.rate_bps;
        pc.start_time = c.start;
        pc.stop_time = c.stop;
        pc.seed =
            c.seed != 0 ? c.seed + k : flow_seed(spec.seed, id * 31 + 3);
        net.reserve_flow_id(id);
        net.add_source(std::make_unique<traffic::PoissonSource>(
            &net.loop(), &net.link(), pc));
        break;
      }
      case CrossSpec::Kind::kCbr: {
        traffic::CbrSource::Config cc;
        cc.id = resolve_id();
        cc.rate_bps = c.rate_bps;
        cc.start_time = c.start;
        cc.stop_time = c.stop;
        net.reserve_flow_id(cc.id);
        net.add_source(std::make_unique<traffic::CbrSource>(
            &net.loop(), &net.link(), cc));
        break;
      }
      case CrossSpec::Kind::kVideo: {
        const sim::FlowId id = resolve_id();
        traffic::VideoSource::Config vc;
        vc.id = id;
        vc.bitrate_bps = c.rate_bps;
        vc.rtt_prop = rtt;
        vc.start_time = c.start;
        vc.stop_time = c.stop;
        vc.seed = c.seed != 0
                      ? c.seed + k
                      : derived_seed_with_id(spec.seed, vc.seed + k, id);
        net.add_source(std::make_unique<traffic::VideoSource>(&net, vc));
        break;
      }
      case CrossSpec::Kind::kNimbus: {
        const sim::FlowId id = resolve_id();
        auto algo = std::make_unique<core::Nimbus>(c.nimbus);
        out.nimbus_cross.push_back(algo.get());
        out.nimbus_cross_ids.push_back(id);
        sim::TransportFlow::Config fc;
        fc.id = id;
        fc.rtt_prop = rtt;
        fc.start_time = c.start;
        fc.stop_time = c.stop;
        // Id-salted like the other flow kinds (the Nimbus protagonist's
        // id*7+1 family) — an id-free default would hand every unseeded replica
        // the same RNG stream, correlating exactly the flows the
        // multi-flow experiments measure.  (A new kind, so there is no
        // historical unseeded output to preserve.)
        fc.seed = c.seed != 0 ? c.seed + k
                              : flow_seed(spec.seed, id * 7 + 1);
        net.add_flow(fc, std::move(algo));
        break;
      }
    }
  }
}

}  // namespace

// Discretization grid of a kSine link.
constexpr TimeNs kSineQuantum = from_ms(100);

std::unique_ptr<sim::RateSchedule> make_link_schedule(
    const ScenarioSpec& spec) {
  const LinkSpec& l = spec.link;
  switch (l.kind) {
    case LinkSpec::Kind::kConstant:
      return sim::RateSchedule::constant(spec.mu_bps);
    case LinkSpec::Kind::kSteps:
      return sim::RateSchedule::steps(spec.mu_bps, l.steps);
    case LinkSpec::Kind::kSine:
      return sim::RateSchedule::sine(spec.mu_bps, l.amplitude_frac, l.period,
                                     kSineQuantum);
    case LinkSpec::Kind::kRandomWalk:
      return sim::RateSchedule::random_walk(
          spec.mu_bps, l.amplitude_frac, l.step_interval, l.step_frac,
          // Legacy stream 97 under the default base, like the other
          // derived streams (no historical output to preserve — 97 is
          // just this subsystem's legacy constant).
          flow_seed(spec.seed, /*legacy=*/97));
    case LinkSpec::Kind::kTrace:
      return sim::RateSchedule::from_trace_file(l.trace_path, l.trace_bucket);
  }
  NIMBUS_CHECK_MSG(false, "unreachable: unknown LinkSpec kind");
  return nullptr;
}

double trace_mean_rate_bps(const std::string& path) {
  return sim::RateSchedule::from_trace_file(path)->mean_rate_bps();
}

BuiltScenario build_network(const ScenarioSpec& spec) {
  BuiltScenario out;
  out.net = make_bottleneck(spec);
  add_protagonist_from_spec(spec, out);
  for (const CrossSpec& c : spec.cross) add_cross_entry(spec, c, out);
  if (spec.workload_enabled) {
    traffic::FlowWorkload::Config wc = spec.workload;
    if (wc.seed == 0) wc.seed = flow_seed(spec.seed, /*legacy=*/1234);
    out.workload = std::make_unique<traffic::FlowWorkload>(out.net.get(), wc);
  }
  return out;
}

std::string obs_artifact_stem(const ScenarioSpec& spec) {
  std::string name = spec.name.empty() ? "scenario" : spec.name;
  for (char& ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '-' || ch == '.';
    if (!ok) ch = '_';
  }
  Hash128 h;
  if (spec_cacheable(spec)) {
    h = spec_hash(spec);
  } else {
    std::string key = spec.name;
    key += '\0';
    key.append(reinterpret_cast<const char*>(&spec.seed), sizeof(spec.seed));
    h = fnv128(key);
  }
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "-%016llx-s%llu",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(spec.seed));
  return name + suffix;
}

std::string export_trace_artifacts(const ScenarioSpec& spec,
                                   const ScenarioRun& run,
                                   const std::string& dir) {
  if (run.telemetry == nullptr || !run.telemetry->trace_on() || dir.empty()) {
    return "";
  }
  const std::string stem = dir + "/" + obs_artifact_stem(spec);
  const std::string json_path = stem + ".trace.json";
  std::FILE* jf = std::fopen(json_path.c_str(), "w");
  NIMBUS_CHECK_MSG(jf != nullptr, "cannot open NIMBUS_OBS_DIR trace file");
  run.telemetry->recorder.write_chrome_trace(jf);
  std::fclose(jf);
  std::FILE* cf = std::fopen((stem + ".trace.csv").c_str(), "w");
  NIMBUS_CHECK_MSG(cf != nullptr, "cannot open NIMBUS_OBS_DIR trace file");
  run.telemetry->recorder.write_csv(cf);
  std::fclose(cf);
  return json_path;
}

namespace {

// Physical invariants every transport flow must satisfy after a run: no
// more packets lost than sent, no more bytes acknowledged than sent, and
// the receiver of a completed finite flow holds all of its application
// bytes.  The last is checked at the receiver, not against acked_bytes():
// that counter sums the bytes the sender saw acknowledged while still
// outstanding, which misses a packet declared lost while a copy of it was
// in flight and then covered by a cumulative ACK before being resent.
// O(flows), once per cell.
void check_transport_conservation(sim::Network& net) {
  for (const auto& f : net.flows()) {
    const auto sent = f->sent_packets();
    NIMBUS_CHECK_MSG(f->lost_packets() <= sent,
                     "transport flow lost more packets than it sent");
    NIMBUS_CHECK_MSG(static_cast<std::uint64_t>(f->acked_bytes()) <=
                         sent * f->mss(),
                     "transport flow acked more bytes than it sent");
    NIMBUS_CHECK_MSG(!f->completed() || f->config().app_bytes < 0 ||
                         static_cast<std::int64_t>(f->received_packets() *
                                                   f->mss()) >=
                             f->config().app_bytes,
                     "completed flow's receiver lacks some of its bytes");
  }
}

}  // namespace

ScenarioRun run_scenario(const ScenarioSpec& spec,
                         const ScenarioSetup& setup, const RunBudget& budget,
                         const ObsConfig& obs) {
  ScenarioRun run;
  run.built = build_network(spec);
  if (obs.mode != obs::Mode::kOff) {
    run.telemetry =
        std::make_unique<obs::Telemetry>(obs.mode, obs.ring_capacity);
    run.built.net->attach_telemetry(run.telemetry.get());
    const obs::Trace tr = run.telemetry->trace();
    if (run.built.nimbus != nullptr) {
      run.built.nimbus->set_trace(tr, spec.protagonist.id);
    }
    for (std::size_t i = 0; i < run.built.nimbus_cross.size(); ++i) {
      run.built.nimbus_cross[i]->set_trace(tr, run.built.nimbus_cross_ids[i]);
    }
  }
  if (spec.log_copa_mode) {
    NIMBUS_CHECK_MSG(run.built.protagonist != nullptr,
                     "log_copa_mode needs a protagonist flow");
    const auto* copa =
        dynamic_cast<const cc::Copa*>(&run.built.protagonist->cc());
    NIMBUS_CHECK_MSG(copa != nullptr,
                     "log_copa_mode needs a Copa protagonist");
    run.mode_log = std::make_unique<ModeLog>();
    attach_copa_poller(run.built.net.get(), copa, run.mode_log.get());
  }
  if (run.built.nimbus != nullptr) {
    run.mode_log = std::make_unique<ModeLog>();
    run.eta_log = std::make_unique<util::TimeSeries>();
    run.eta_raw_log = std::make_unique<util::TimeSeries>();
    run.z_log = std::make_unique<util::TimeSeries>();
    run.rate_log = std::make_unique<util::TimeSeries>();
    attach_nimbus_logger(run.built.nimbus, run.mode_log.get(),
                         run.eta_log.get(), run.z_log.get(),
                         run.eta_raw_log.get(), run.rate_log.get());
  }
  if (setup) setup(spec, run.built);
  if (budget.limited()) {
    run.built.net->loop().set_run_budget(budget.max_events,
                                         budget.max_wall_seconds);
  }
  run.built.net->run_until(spec.duration);
  check_transport_conservation(*run.built.net);
  export_trace_artifacts(spec, run, obs.dir);
  return run;
}

// ---------------------------------------------------------------------------
// Canned experiments.
// ---------------------------------------------------------------------------

bool spec_cross_is_elastic(const ScenarioSpec& spec) {
  for (const CrossSpec& c : spec.cross) {
    NIMBUS_CHECK_MSG(c.kind != CrossSpec::Kind::kVideo,
                     "video cross elasticity depends on bitrate vs "
                     "capacity; pass the ground truth explicitly");
    if (c.kind == CrossSpec::Kind::kScheme ||
        c.kind == CrossSpec::Kind::kNimbus ||
        c.kind == CrossSpec::Kind::kConstWindow) {
      return true;
    }
  }
  return false;
}

ScenarioSpec accuracy_scenario(const std::string& cross_kind, double mu,
                               TimeNs nimbus_rtt, TimeNs cross_rtt,
                               double cross_share, TimeNs duration,
                               std::uint64_t seed,
                               const core::Nimbus::Config& cfg,
                               double buf_bdp) {
  ScenarioSpec spec;
  spec.name = "accuracy/" + cross_kind;
  spec.mu_bps = mu;
  spec.rtt = nimbus_rtt;
  spec.buffer_bdp = buf_bdp;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus = cfg;
  spec.protagonist.nimbus.known_mu_bps = mu;
  if (cross_kind == "poisson") {
    spec.cross.push_back(CrossSpec::poisson(cross_share * mu, 2));
  } else if (cross_kind == "cbr") {
    spec.cross.push_back(CrossSpec::cbr(cross_share * mu, 2));
  } else if (cross_kind == "newreno" || cross_kind == "cubic") {
    CrossSpec c = CrossSpec::flow(cross_kind, 2);
    c.rtt = cross_rtt;
    c.seed = seed;
    spec.cross.push_back(c);
  } else if (cross_kind == "mix") {
    spec.cross.push_back(CrossSpec::poisson(cross_share * mu / 2, 2));
    CrossSpec c = CrossSpec::flow("newreno", 3);
    c.rtt = cross_rtt;
    c.seed = seed;
    spec.cross.push_back(c);
  } else {
    NIMBUS_CHECK_MSG(cross_kind == "none", "unknown accuracy cross kind");
  }
  return spec;
}

double score_accuracy(const ScenarioRun& run, const ScenarioSpec& spec) {
  NIMBUS_CHECK_MSG(run.mode_log != nullptr,
                   "accuracy scoring needs a Nimbus mode log");
  GroundTruth truth;
  truth.add_interval(0, spec.duration, spec_cross_is_elastic(spec));
  // Skip warmup: one FFT window plus smoothing.
  return run.mode_log->accuracy(truth, from_sec(10), spec.duration);
}

}  // namespace nimbus::exp
