// Fig. 4: the cross traffic's reaction to pulses in the time domain.
// S(t) (the pulser's send rate) and the z(t) estimate over 3 seconds, for
// elastic (Cubic) and inelastic (CBR) cross traffic: elastic z mirrors the
// pulses inverted after one RTT; inelastic z is flat.
//
// Declarative form: one ScenarioSpec per cross kind (delay-mode-held
// Nimbus protagonist), batched through exp::run_sweep; the z(t) series
// comes from the run's standard z log.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& kind) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "fig04/" + kind;
  spec.mu_bps = mu;
  spec.duration = from_sec(28);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // hold delay mode so both
                                                // runs are comparable
  if (kind == "elastic") {
    spec.cross.push_back(exp::CrossSpec::flow("cubic", 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::cbr(48e6, 2));
  }
  return spec;
}

}  // namespace

int main() {
  std::printf("fig04,kind,time_s,z_mbps\n");
  const std::vector<std::string> kinds = {"elastic", "inelastic"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& k : kinds) specs.push_back(make_spec(k));

  // Cell layout: the z(t) samples (bit/s) in the (25, 28) s window, one
  // per 10 ms detector report.
  const auto series = exp::run_sweep(
      specs,
      [](const exp::ScenarioSpec&, exp::ScenarioRun& run) {
        return exp::CellResult::vec(
            run.z_log->values_in(from_sec(25), from_sec(28)));
      },
      {},
      [&](std::size_t i, exp::CellResult& r) {
        std::size_t j = 0;
        for (double v : r.values) {
          row("fig04", kinds[i],
              {25.0 + 0.01 * static_cast<double>(j++), v / 1e6});
        }
      });

  auto swing = [](const std::vector<double>& zs) {
    double mn = 1e18, mx = -1e18;
    for (double v : zs) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    return (mx - mn) / 1e6;
  };
  const double swing_elastic = swing(series[0].values);
  const double swing_inelastic = swing(series[1].values);
  row("fig04", "summary_pp_swing", {swing_elastic, swing_inelastic});
  shape_check("fig04", swing_elastic > 1.5 * swing_inelastic,
              "elastic z(t) reacts to pulses; inelastic z(t) is flat(ter)");
  return shape_exit_code();
}
