// Fig. 16: multiple Nimbus flows arriving and leaving (no other cross
// traffic).  Four flows start 120 s apart, each lasting 480 s; they share
// the link fairly, keep at most one pulser, and hold low delays by staying
// in delay mode.
//
// Declarative form: four CrossSpec::kNimbus entries (no protagonist) in
// one ScenarioSpec; the role probe is scheduled through the run_sweep
// setup hook against BuiltScenario::nimbus_cross.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Self-rescheduling role probe: counts the pulsers every 500 ms.  A
// 24-byte copyable struct the event loop stores inline.
struct PulserProbe {
  util::TimeSeries* pulser_count;
  sim::Network* net;
  const std::vector<core::Nimbus*>* flows;
  void operator()() const {
    int n = 0;
    for (auto* f : *flows) {
      if (f->role() == core::Nimbus::Role::kPulser) ++n;
    }
    pulser_count->add(net->loop().now(), n);
    net->loop().schedule_in(from_ms(500), *this);
  }
};

}  // namespace

int main() {
  const double mu = 96e6;
  // Flows start `stagger` apart and live 4 * stagger: the run lasts
  // 7 * stagger, which is how collect recovers the timeline.
  const TimeNs stagger = from_sec(full_run() ? 120 : 30);
  const TimeNs life = stagger * 4;
  const TimeNs end = stagger * 3 + life;

  exp::ScenarioSpec spec;
  spec.name = "fig16";
  spec.mu_bps = mu;
  spec.duration = end;
  spec.protagonist.enabled = false;
  for (int i = 0; i < 4; ++i) {
    core::Nimbus::Config cfg;
    cfg.known_mu_bps = mu;
    cfg.multiflow = true;
    spec.cross.push_back(exp::CrossSpec::nimbus_flow(
        cfg, static_cast<sim::FlowId>(i + 1),
        100 + static_cast<std::uint64_t>(i), stagger * i,
        stagger * i + life));
  }

  // Sample roles over time on the simulation loop (scheduled pre-run via
  // the setup hook).  pulser_count is the one cell's per-run scratch: it
  // holds only what the run produced, so the cell is still a function of
  // its spec, as the cache requires.
  util::TimeSeries pulser_count;
  const exp::ScenarioSetup setup = [&pulser_count](const exp::ScenarioSpec&,
                                                   exp::BuiltScenario& built) {
    built.net->loop().schedule_in(
        from_ms(500),
        PulserProbe{&pulser_count, built.net.get(), &built.nimbus_cross});
  };

  // Cell layout: [jain, mean_pulsers, qdelay_ms, then per step: t, f1..f4
  // mbps, qdelay_ms, pulsers].  Steps are stagger / 30 wide (1 s quick,
  // 4 s full).
  const auto collect = [&pulser_count](const exp::ScenarioSpec& spec,
                                       exp::ScenarioRun& run) {
    const TimeNs end = spec.duration;
    const TimeNs stagger = end / 7, life = stagger * 4;
    const TimeNs step = stagger / 30;
    auto& rec = run.built.net->recorder();
    // Fairness in the middle window where flows 1-3 are all active.
    const TimeNs a = stagger * 2 + from_sec(10), b = stagger * 2 + life / 3;
    std::vector<double> rates;
    for (sim::FlowId id : {1u, 2u, 3u}) {
      rates.push_back(rec.delivered(id).rate_bps(a, b));
    }
    exp::CellResult r = exp::CellResult::vec(
        {util::jain_fairness(rates),
         pulser_count.mean_in(from_sec(20), end).value_or(0.0),
         rec.probed_queue_delay().mean_in(from_sec(20), end).value_or(0.0)});
    for (TimeNs t = step; t < end; t += step) {
      r.values.insert(
          r.values.end(),
          {to_sec(t), rec.delivered(1).rate_bps(t - step, t) / 1e6,
           rec.delivered(2).rate_bps(t - step, t) / 1e6,
           rec.delivered(3).rate_bps(t - step, t) / 1e6,
           rec.delivered(4).rate_bps(t - step, t) / 1e6,
           rec.probed_queue_delay().mean_in(t - step, t).value_or(0.0),
           pulser_count.mean_in(t - step, t).value_or(0.0)});
    }
    return r;
  };

  std::printf("fig16,second,f1,f2,f3,f4,qdelay_ms,pulsers\n");
  const auto results = exp::run_sweep(
      {spec}, collect,
      [&](std::size_t, exp::CellResult& r) {
        const auto& v = r.values;
        for (std::size_t k = 3; k + 7 <= v.size(); k += 7) {
          row("fig16", util::format_num(v[k]),
              {v[k + 1], v[k + 2], v[k + 3], v[k + 4], v[k + 5], v[k + 6]});
        }
      },
      setup);

  const double jain = results[0].value(0);
  const double mean_pulsers = results[0].value(1);
  const double qd = results[0].value(2);
  row("fig16", "summary", {jain, mean_pulsers, qd});
  shape_check("fig16", jain > 0.8,
              "concurrent nimbus flows share fairly");
  // Known WARN (quick and full mode): around each arrival/departure our
  // election protocol leaves two pulsers active for longer than the
  // paper's, so the 500 ms role samples average just over the 1.5 bar — a
  // known reproduction gap of the simplified multi-flow protocol, tracked
  // in ROADMAP.md rather than failed under NIMBUS_SHAPE_STRICT.
  shape_check_known_warn("fig16", mean_pulsers <= 1.5,
                         "roughly one pulser at a time");
  shape_check("fig16", qd < 60,
              "delays stay well below the 100 ms buffer");
  return shape_exit_code();
}
