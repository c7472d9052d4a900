// Fig. 25 (App. E.1): multi-factor accuracy sweep — pulse amplitude x
// Nimbus's fair share of the link x link rate, for elastic / inelastic /
// mixed cross traffic.  Bigger pulses and faster links help; accuracy
// stays high across the grid.
//
// Declarative form: every factor combination is an accuracy_scenario spec
// batched through exp::run_sweep; rows print in grid order from the
// in-order result callback.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout: [accuracy].  Ground truth (elastic cross present) is
// derived from the spec.
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  return exp::CellResult::scalar(exp::score_accuracy(run, spec));
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 30);
  const bool full = full_run();
  const std::vector<double> pulses =
      full ? std::vector<double>{0.0625, 0.125, 0.25, 0.5}
           : std::vector<double>{0.125, 0.25};
  const std::vector<double> shares =
      full ? std::vector<double>{0.125, 0.25, 0.5, 0.75}
           : std::vector<double>{0.25, 0.5};
  const std::vector<double> rates = full
                                        ? std::vector<double>{48e6, 96e6,
                                                              192e6}
                                        : std::vector<double>{96e6};

  std::printf(
      "fig25,mix,pulse_frac,nimbus_share,link_mbps,accuracy\n");
  std::vector<exp::ScenarioSpec> specs;
  std::vector<std::string> labels;
  for (const std::string mix : {"newreno", "poisson", "mix"}) {
    for (double pulse : pulses) {
      for (double share : shares) {
        for (double mu : rates) {
          core::Nimbus::Config cfg;
          cfg.pulse_amplitude_frac = pulse;
          // Cross traffic occupies (1 - share) of the link.
          const double cross = 1.0 - share;
          specs.push_back(exp::accuracy_scenario(
              mix, mu, from_ms(50), from_ms(50), cross, duration, 77, cfg));
          labels.push_back(mix + "," + util::format_num(pulse) + "," +
                           util::format_num(share) + "," +
                           util::format_num(mu / 1e6));
        }
      }
    }
  }

  util::OnlineStats overall;
  exp::run_sweep(specs, collect, {},
                 [&](std::size_t i, exp::CellResult& r) {
                   row("fig25", labels[i], {r.value()});
                   overall.add(r.value());
                 });
  row("fig25", "summary_mean_accuracy", {overall.mean()});
  shape_check("fig25", overall.mean() > 0.7,
              "mean accuracy across the factor grid stays high");
  return shape_exit_code();
}
