// Ablations of the design choices DESIGN.md section 5 calls out:
//   1. frequency-domain eta vs a time-domain cross-correlation detector;
//   2. asymmetric vs symmetric pulses (minimum feasible sending rate);
//   3. FFT window duration (1-10 s) accuracy trade-off;
//   4. the 5 s rate reset when switching to competitive mode.
//
// Experiments 1, 3 and 4 are scenario sweeps through exp::run_sweep.
#include <complex>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// --- 1: time-domain strawman: normalized cross-correlation of S and z ---
exp::ScenarioSpec xcorr_spec(const std::string& kind, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "ablation/xcorr/" + kind;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.eta_threshold = 1e9;
  if (kind == "elastic") {
    spec.cross.push_back(exp::CrossSpec::flow("cubic", 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::poisson(48e6, 2));
  }
  return spec;
}

// Max |correlation| of the run's base rate S(t) and cross-traffic estimate
// z(t) over the last 5 s, across lags 0..300 ms.
double xcorr_detector(const exp::ScenarioSpec& spec,
                      const exp::ScenarioRun& run) {
  const TimeNs t0 = spec.duration - from_sec(5);
  const auto sv = run.rate_log->resample(t0, from_ms(10), 500);
  const auto zv = run.z_log->resample(t0, from_ms(10), 500);
  auto centered = [](std::vector<double> v) {
    double m = 0;
    for (double x : v) m += x;
    m /= static_cast<double>(v.size());
    for (double& x : v) x -= m;
    return v;
  };
  const auto sc = centered(sv);
  const auto zc = centered(zv);
  double best = 0;
  for (int lag = 0; lag <= 30; ++lag) {
    double dot = 0, ss = 0, zz = 0;
    for (std::size_t i = 0; i + lag < sc.size(); ++i) {
      dot += sc[i] * zc[i + lag];
      ss += sc[i] * sc[i];
      zz += zc[i + lag] * zc[i + lag];
    }
    if (ss > 0 && zz > 0) {
      best = std::max(best, std::abs(dot) / std::sqrt(ss * zz));
    }
  }
  return best;
}

// --- 4: rate reset ---
// The reset looks back one FFT duration (5 s) from the mode switch, so it
// only matters when the delay-mode collapse is *younger* than 5 s at
// detection time.  A 50 ms cubic cross collapses the protagonist within
// ~1 s of onset while detection lands ~6 s after it — the lookback saw
// the already-collapsed rate and the two arms were identical (the old
// shape check compared a no-op against itself).  A slow-ramping 800 ms
// cubic cross delays the collapse to ~5 s after onset (t=15), detection
// fires at t=18.6, and the lookback (t=13.6) still sees the full ~95
// Mbit/s — the reset arm rejoins the fight immediately while the
// no-reset arm rebuilds from the collapsed rate.
exp::ScenarioSpec reset_spec(bool enable_reset, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = enable_reset ? "ablation/reset/on" : "ablation/reset/off";
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.enable_rate_reset = enable_reset;
  exp::CrossSpec c = exp::CrossSpec::flow("cubic", 2, from_sec(10));
  c.rtt = from_ms(800);
  spec.cross.push_back(c);
  return spec;
}

}  // namespace

int main() {
  const TimeNs duration = dur(60, 30);

  // 1. Frequency vs time domain.
  std::printf("ablation,experiment,variant,value\n");
  const std::vector<exp::ScenarioSpec> xcorr_specs = {
      xcorr_spec("elastic", duration), xcorr_spec("inelastic", duration)};
  const auto xcorr = exp::run_sweep(
      xcorr_specs, [](const exp::ScenarioSpec& s, exp::ScenarioRun& run) {
        return exp::CellResult::scalar(xcorr_detector(s, run));
      });
  const double xc_e = xcorr[0].value();
  const double xc_i = xcorr[1].value();
  row("ablation", "xcorr,elastic", {xc_e});
  row("ablation", "xcorr,inelastic", {xc_i});
  // The point of the ablation (section 3.3's rejected first design): the
  // time-domain statistic does NOT cleanly separate the classes, because
  // alignment depends on the unknown cross-traffic RTT.  A weak ratio is
  // the expected (motivating) outcome.
  shape_check("ablation_xcorr", xc_e < 3.0 * xc_i,
              "time-domain cross-correlation fails to separate cleanly "
              "(motivates the frequency domain)");

  // 2. Pulse shape: minimum feasible base rate.
  core::AsymmetricPulse asym({5.0, 0.25});
  const double mu = 96e6;
  // A symmetric sinusoid of the same peak amplitude needs S >= A.
  row("ablation", "min_rate,asymmetric_mbps",
      {asym.min_base_rate(mu) / 1e6});
  row("ablation", "min_rate,symmetric_mbps", {0.25 * mu / 1e6});
  shape_check("ablation_pulse",
              asym.min_base_rate(mu) < 0.25 * mu / 2.9,
              "asymmetric pulse is feasible at ~1/3 the base rate");

  // 3. FFT duration: accuracy of the detector per window length, as a
  // batch of accuracy scenarios.
  const std::vector<double> fft_secs = {1.0, 2.0, 5.0, 10.0};
  std::vector<exp::ScenarioSpec> fft_specs;
  for (double d : fft_secs) {
    core::Nimbus::Config cfg;
    cfg.fft_duration_sec = d;
    fft_specs.push_back(exp::accuracy_scenario(
        "poisson", 96e6, from_ms(50), from_ms(50), 0.5, duration, 64, cfg));
  }
  const auto accs = exp::run_sweep(
      fft_specs, [](const exp::ScenarioSpec& s, exp::ScenarioRun& run) {
        return exp::CellResult::scalar(exp::score_accuracy(run, s));
      });
  double best = 0, at1s = 0;
  for (std::size_t i = 0; i < fft_secs.size(); ++i) {
    row("ablation", "fft_duration," + util::format_num(fft_secs[i]),
        {accs[i].value()});
    best = std::max(best, accs[i].value());
    if (fft_secs[i] == 1.0) at1s = accs[i].value();
  }
  shape_check("ablation_fftdur", best >= at1s,
              "very short FFT windows do not beat the 5 s default");

  // 4. Rate reset on switching to competitive.
  const std::vector<exp::ScenarioSpec> reset_specs = {
      reset_spec(true, duration), reset_spec(false, duration)};
  const auto recovery = exp::run_sweep(
      reset_specs, [](const exp::ScenarioSpec&, exp::ScenarioRun& run) {
        // Throughput in the fixed window right after detection (~18.6 s)
        // — where the reset's effect lives; it is transient, so the
        // window must not stretch with the full-mode duration.
        return exp::CellResult::scalar(run.built.net->recorder()
                                           .delivered(1)
                                           .rate_bps(from_sec(18),
                                                     from_sec(30)) /
                                       1e6);
      });
  const double with_reset = recovery[0].value();
  const double without = recovery[1].value();
  row("ablation", "rate_reset,with", {with_reset});
  row("ablation", "rate_reset,without", {without});
  // Measured 71.7 vs 54.9 Mbit/s (1.31x): the reset arm must clearly
  // beat the no-reset arm, not merely avoid crippling it.
  shape_check("ablation_reset", with_reset > 1.15 * without,
              "rate reset recovers post-switch throughput the no-reset "
              "arm leaves on the table");
  return shape_exit_code();
}
