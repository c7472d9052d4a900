// Fig. 17: three Nimbus flows with phased cross traffic on a 192 Mbit/s
// link: three Cubic flows in the first phase (elastic), a 96 Mbit/s CBR in
// the second (inelastic).  The aggregate should take the fair share in the
// elastic phase and hold low delays in the inelastic phase.
//
// Declarative form: three CrossSpec::kNimbus entries plus the phased
// cubic/CBR cross schedule in one ScenarioSpec (no protagonist), run
// through exp::run_sweep.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

int main() {
  const double mu = 192e6;
  const bool full = full_run();
  const TimeNs p1 = from_sec(full ? 90 : 55);     // cubic phase end
  const TimeNs p2 = from_sec(full ? 150 : 95);    // CBR phase end

  exp::ScenarioSpec spec;
  spec.name = "fig17";
  spec.mu_bps = mu;
  spec.duration = p2;
  spec.protagonist.enabled = false;
  for (int i = 0; i < 3; ++i) {
    core::Nimbus::Config cfg;
    cfg.known_mu_bps = mu;
    cfg.multiflow = true;
    spec.cross.push_back(exp::CrossSpec::nimbus_flow(
        cfg, static_cast<sim::FlowId>(i + 1),
        200 + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 3; ++i) {
    spec.cross.push_back(
        exp::CrossSpec::flow("cubic", static_cast<sim::FlowId>(10 + i),
                             from_sec(full ? 30 : 10), p1));
  }
  spec.cross.push_back(exp::CrossSpec::cbr(96e6, 20, p1, p2));

  // Cell layout: [agg_elastic_bps, agg_inelastic_bps, qd_inelastic_ms,
  // then per second: t, nimbus_total_mbps, qdelay_ms].  Phase bounds come
  // from the spec's cubic entries (+20 s warmup) and CBR entry.
  const auto collect = [](const exp::ScenarioSpec& spec,
                          exp::ScenarioRun& run) {
    const exp::CrossSpec& cubic = spec.cross[3];
    const exp::CrossSpec& cbr = spec.cross.back();
    const TimeNs p1 = cbr.start, p2 = cbr.stop;
    auto& rec = run.built.net->recorder();
    std::vector<double> seconds;
    for (TimeNs t = from_sec(1); t < p2; t += from_sec(1)) {
      const double total =
          (rec.delivered(1).bytes_in(t - from_sec(1), t) +
           rec.delivered(2).bytes_in(t - from_sec(1), t) +
           rec.delivered(3).bytes_in(t - from_sec(1), t)) *
          8.0 / 1e6;
      seconds.insert(seconds.end(),
                     {to_sec(t), total,
                      rec.probed_queue_delay()
                          .mean_in(t - from_sec(1), t)
                          .value_or(0.0)});
    }
    // Elastic phase: aggregate fair share = 3/6 of the link.
    const TimeNs ea = cubic.start + from_sec(20), eb = p1;
    double agg_elastic = 0;
    for (sim::FlowId id : {1u, 2u, 3u}) {
      agg_elastic += rec.delivered(id).rate_bps(ea, eb);
    }
    // Inelastic phase: fair share = (192-96)/3 each; delays low.
    const TimeNs ia = p1 + from_sec(15), ib = p2;
    double agg_inelastic = 0;
    for (sim::FlowId id : {1u, 2u, 3u}) {
      agg_inelastic += rec.delivered(id).rate_bps(ia, ib);
    }
    exp::CellResult r = exp::CellResult::vec(
        {agg_elastic, agg_inelastic,
         rec.probed_queue_delay().mean_in(ia, ib).value_or(0.0)});
    r.values.insert(r.values.end(), seconds.begin(), seconds.end());
    return r;
  };

  std::printf("fig17,second,nimbus_total_mbps,qdelay_ms\n");
  const auto results = exp::run_sweep(
      {spec}, collect, {},
      [&](std::size_t, exp::CellResult& r) {
        const auto& v = r.values;
        for (std::size_t k = 3; k + 3 <= v.size(); k += 3) {
          row("fig17", util::format_num(v[k]), {v[k + 1], v[k + 2]});
        }
      });

  const double agg_elastic = results[0].value(0);
  const double agg_inelastic = results[0].value(1);
  const double qd_inelastic = results[0].value(2);
  row("fig17", "summary",
      {agg_elastic / 1e6, agg_inelastic / 1e6, qd_inelastic});
  shape_check("fig17", agg_elastic > 0.18 * mu,
              "elastic phase: nimbus aggregate holds a meaningful share");
  shape_check("fig17", agg_inelastic > 0.35 * mu,
              "inelastic phase: aggregate near the 96 Mbit/s fair share");
  shape_check("fig17", qd_inelastic < 50,
              "inelastic phase: low delays (delay mode)");
  return shape_exit_code();
}
