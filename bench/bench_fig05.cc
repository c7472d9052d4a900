// Fig. 5: FFT of the z(t) estimate for elastic vs inelastic cross traffic.
// Elastic traffic shows a pronounced peak at the pulse frequency f_p;
// inelastic traffic's spectrum is spread across frequencies.
//
// Declarative form: one ScenarioSpec per cross kind; the spectrum is read
// off the protagonist Nimbus's detector while the worker still owns the
// network, and scored with the detector's own Eq. 3 band scan.
#include "common.h"
#include "core/elasticity.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& kind) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "fig05/" + kind;
  spec.mu_bps = mu;
  spec.duration = from_sec(30);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // hold delay mode
  if (kind == "elastic") {
    spec.cross.push_back(exp::CrossSpec::flow("cubic", 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::poisson(48e6, 2));
  }
  return spec;
}

// Cell layout: [sample_rate_hz, then the magnitude bins 0..N/2].
exp::CellResult collect(const exp::ScenarioSpec&, exp::ScenarioRun& run) {
  const spectral::Spectrum s = run.built.nimbus->detector().full_spectrum();
  exp::CellResult r = exp::CellResult::vec(s.magnitude);
  r.values.insert(r.values.begin(), s.sample_rate_hz);
  return r;
}

spectral::Spectrum spectrum_of(const exp::CellResult& r) {
  spectral::Spectrum s;
  s.sample_rate_hz = r.value(0);
  for (std::size_t k = 1; k < r.values.size(); ++k) {
    s.magnitude.push_back(r.values[k]);
  }
  return s;
}

// Eq. 3 at the 5 Hz pulse over the full spectrum's magnitudes.
double eta_of(const spectral::Spectrum& s) {
  core::DetectorConfig cfg;
  cfg.sample_rate_hz = s.sample_rate_hz;
  const std::size_t n = (s.bins() - 1) * 2;
  return core::evaluate_band(cfg, n, 5.0, [&s](std::size_t k) {
           return s.magnitude[k];
         }).eta;
}

}  // namespace

int main() {
  std::printf("fig05,kind,freq_hz,magnitude_mbps\n");
  const std::vector<exp::ScenarioSpec> specs = {make_spec("elastic"),
                                                make_spec("inelastic")};
  const auto cells = exp::run_sweep(specs, collect);

  const spectral::Spectrum elastic = spectrum_of(cells[0]);
  const spectral::Spectrum inelastic = spectrum_of(cells[1]);
  for (std::size_t k = 1; k < elastic.bins() && elastic.frequency(k) <= 50;
       ++k) {
    row("fig05", "elastic", {elastic.frequency(k),
                             elastic.magnitude[k] / 1e6});
  }
  for (std::size_t k = 1;
       k < inelastic.bins() && inelastic.frequency(k) <= 50; ++k) {
    row("fig05", "inelastic", {inelastic.frequency(k),
                               inelastic.magnitude[k] / 1e6});
  }
  const double eta_e = eta_of(elastic);
  const double eta_i = eta_of(inelastic);
  row("fig05", "summary_eta", {eta_e, eta_i});
  shape_check("fig05", eta_e >= 2.0 && eta_i < 2.0,
              "pronounced f_p peak only for elastic cross traffic");
  return shape_exit_code();
}
