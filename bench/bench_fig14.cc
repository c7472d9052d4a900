// Fig. 14: classification accuracy, Nimbus vs Copa.
//  Left: inelastic cross traffic (CBR and Poisson) occupying 30-90% of the
//        link — Copa's queue-draining detector fails above ~80%; Nimbus
//        stays accurate.
//  Right: one elastic NewReno flow with RTT 1-4x the protagonist's —
//        Copa's accuracy collapses with RTT ratio; Nimbus's barely drops.
//
// Declarative form: every cell is a (nimbus accuracy_scenario, copa
// ScenarioSpec with log_copa_mode) pair batched through exp::run_sweep;
// both are scored with score_accuracy.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

constexpr double kMu = 96e6;

exp::ScenarioSpec copa_spec(const std::string& cross_kind,
                            double cross_share, TimeNs cross_rtt,
                            TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig14/copa-" + cross_kind;
  spec.mu_bps = kMu;
  spec.duration = duration;
  spec.protagonist.scheme = "copa";
  spec.log_copa_mode = true;
  if (cross_kind == "cbr") {
    spec.cross.push_back(exp::CrossSpec::cbr(cross_share * kMu, 2));
  } else if (cross_kind == "poisson") {
    spec.cross.push_back(exp::CrossSpec::poisson(cross_share * kMu, 2));
  } else {
    exp::CrossSpec c = exp::CrossSpec::flow("newreno", 2);
    c.rtt = cross_rtt;
    c.seed = 3;
    spec.cross.push_back(c);
  }
  return spec;
}

// Both protagonist kinds produce a mode log; the cell's ground truth
// (elastic cross present) is derived from the spec.
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  return exp::CellResult::scalar(exp::score_accuracy(run, spec));
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 45);
  std::printf("fig14,panel,x,nimbus_accuracy,copa_accuracy\n");

  const std::vector<double> shares =
      full_run() ? std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
                 : std::vector<double>{0.3, 0.5, 0.7, 0.85};
  const std::vector<double> ratios =
      full_run() ? std::vector<double>{1, 1.5, 2, 2.5, 3, 3.5, 4}
                 : std::vector<double>{1, 2, 4};

  // Cells in hand-rolled execution order, one (nimbus, copa) spec pair
  // per cell: the left panel's (share, kind) grid, then the right panel's
  // RTT-ratio sweep.
  struct Cell {
    std::string label;
    double x;
    bool right_panel;
  };
  std::vector<Cell> cells;
  std::vector<exp::ScenarioSpec> specs;
  for (double share : shares) {
    for (const std::string kind : {"cbr", "poisson"}) {
      cells.push_back({"left_" + kind + "," + util::format_num(share),
                       share, false});
      specs.push_back(exp::accuracy_scenario(kind, kMu, from_ms(50),
                                             from_ms(50), share, duration,
                                             11));
      specs.push_back(copa_spec(kind, share, from_ms(50), duration));
    }
  }
  for (double ratio : ratios) {
    const TimeNs cross_rtt = from_ms(50 * ratio);
    cells.push_back({"right," + util::format_num(ratio), ratio, true});
    specs.push_back(exp::accuracy_scenario("newreno", kMu, from_ms(50),
                                           cross_rtt, 0, duration, 13));
    specs.push_back(copa_spec("newreno", 0, cross_rtt, duration));
  }

  double nim_hi = 0, copa_hi = 0;
  double nim_r4 = 0, copa_r4 = 0;
  double nim_pending = 0;
  exp::run_sweep(
      specs, collect, {},
      [&](std::size_t i, exp::CellResult& r) {
        const double acc = r.value();
        if (i % 2 == 0) {
          nim_pending = acc;
          return;
        }
        const Cell& cell = cells[i / 2];
        row("fig14", cell.label, {nim_pending, acc});
        if (!cell.right_panel && cell.x >= 0.85) {
          nim_hi = std::max(nim_hi, nim_pending);
          copa_hi = std::max(copa_hi, acc);
        }
        if (cell.right_panel && cell.x == 4) {
          nim_r4 = nim_pending;
          copa_r4 = acc;
        }
      });

  shape_check("fig14", nim_hi > copa_hi,
              "high inelastic share: nimbus beats copa's classifier");
  shape_check("fig14", nim_r4 > copa_r4,
              "4x cross RTT: nimbus's accuracy exceeds copa's");
  return shape_exit_code();
}
