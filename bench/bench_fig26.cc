// Fig. 26 (App. F): detecting a non-ACK-clocked elastic protocol.
// PCC-Vivace reacts over monitor intervals (several RTTs), so at the
// default 5 Hz pulse it is classified inelastic; lowering the pulse
// frequency to 2 Hz (longer pulses) lets the detector see its reaction and
// classify it elastic.  CDF of eta at both frequencies.
//
// Declarative form: one ScenarioSpec per pulse frequency; raw-eta samples
// come from the run's standard detector-gated eta_raw log.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(double fp_hz, TimeNs duration) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "fig26/" + util::format_num(fp_hz);
  spec.mu_bps = mu;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.protagonist.nimbus.fp_competitive_hz = fp_hz;
  spec.protagonist.nimbus.fp_delay_hz = fp_hz + 1.0;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // hold delay mode; we only
                                                // measure eta
  exp::CrossSpec vivace = exp::CrossSpec::flow("vivace", 2);
  vivace.seed = 9;
  spec.cross.push_back(vivace);
  return spec;
}

// The cacheable summary is the raw eta sample vector (in log order):
// Percentiles is a lazily-sorted view of exactly these samples, so the
// reconstruction below is bit-exact.
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  exp::CellResult r;
  r.values = run.eta_raw_log->values_in(from_sec(10), spec.duration);
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 45);
  std::printf("fig26,fp_hz,eta,cdf\n");
  const std::vector<exp::ScenarioSpec> specs = {make_spec(5.0, duration),
                                                make_spec(2.0, duration)};
  const auto cells = exp::run_sweep(specs, collect);
  util::Percentiles at5, at2;
  at5.add_all(cells[0].values);
  at2.add_all(cells[1].values);
  if (cells[0].valid) exp::print_cdf("fig26", "5Hz", at5);
  if (cells[1].valid) exp::print_cdf("fig26", "2Hz", at2);
  const double med5 = cells[0].valid ? at5.median() : cells[0].value();
  const double med2 = cells[1].valid ? at2.median() : cells[1].value();
  row("fig26", "summary_median_eta", {med5, med2});
  // Known WARN (quick and full mode): our simplified Vivace's monitor
  // intervals react to the 2 Hz pulses less than the paper's PCC
  // implementation, so the slower pulse does not lift the median eta — a
  // known reproduction gap, tracked in ROADMAP.md rather than failed
  // under NIMBUS_SHAPE_STRICT.  The 5 Hz half of the claim (vivace reads
  // inelastic) does hold and stays strict below.
  shape_check_known_warn(
      "fig26", med2 > med5,
      "slower pulses raise eta for the rate-based vivace");
  shape_check("fig26", med5 < 2.0,
              "at 5 Hz vivace reads as inelastic (not ACK-clocked)");
  return shape_exit_code();
}
