// The elasticity detector as a measurement tool (the use case sketched in
// the paper's introduction): probe a path, report whether the competing
// cross traffic is elastic, and show the spectrum the conclusion is based
// on — without running a full Nimbus controller policy.
//
//   $ ./examples/elasticity_probe [elastic|inelastic|mixed]
#include <cstdio>
#include <string>

#include "exp/scenario.h"
#include "util/stats.h"

using namespace nimbus;

int main(int argc, char** argv) {
  const std::string kind = argc > 1 ? argv[1] : "mixed";
  if (argc > 2 ||
      (kind != "elastic" && kind != "inelastic" && kind != "mixed")) {
    std::fprintf(stderr, "usage: %s [elastic|inelastic|mixed]\n", argv[0]);
    return 2;
  }

  exp::ScenarioSpec spec;
  spec.name = "probe/" + kind;
  spec.mu_bps = 96e6;
  spec.duration = from_sec(30);

  // The probe: a Nimbus instance pinned to delay mode (we only use its
  // estimator + detector, not the mode-switching policy).
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // never switch; observe only
  spec.protagonist.seed = 1;

  // The cross traffic under test.
  if (kind != "inelastic") {
    exp::CrossSpec cubic = exp::CrossSpec::flow("cubic", 2);
    cubic.seed = 7;
    spec.cross.push_back(cubic);
  }
  if (kind != "elastic") {
    exp::CrossSpec poisson =
        exp::CrossSpec::poisson(kind == "mixed" ? 24e6 : 48e6, 3);
    poisson.seed = 99;
    spec.cross.push_back(poisson);
  }

  const exp::ScenarioRun run = exp::run_scenario(spec);
  const core::Nimbus& probe = *run.built.nimbus;

  // Verdict, from the single-window eta of every report after warmup.
  util::Percentiles p;
  p.add_all(run.eta_raw_log->values_in(from_sec(10), from_sec(30)));
  std::printf("cross traffic under test: %s\n", kind.c_str());
  std::printf("estimated cross rate:     %.1f Mbit/s\n",
              probe.last_z_bps() / 1e6);
  std::printf("eta (p25/p50/p75):        %.2f / %.2f / %.2f\n",
              p.percentile(0.25), p.median(), p.percentile(0.75));
  std::printf("verdict:                  %s (threshold 2.0)\n\n",
              p.median() >= 2.0 ? "ELASTIC cross traffic present"
                                : "no elastic cross traffic detected");

  // The evidence: an ASCII rendering of the z(t) spectrum around f_p.
  const auto spectrum = probe.detector().full_spectrum();
  std::printf("z(t) magnitude spectrum (*: pulse frequency band):\n");
  for (std::size_t k = 1;
       k < spectrum.bins() && spectrum.frequency(k) <= 15.0; ++k) {
    const double f = spectrum.frequency(k);
    const int bar = static_cast<int>(spectrum.magnitude[k] / 1e6 * 40);
    std::printf("%5.1f Hz %c |%.*s\n", f,
                (f > 4.7 && f < 5.3) ? '*' : ' ',
                bar > 60 ? 60 : bar,
                "############################################################");
  }
  return 0;
}
