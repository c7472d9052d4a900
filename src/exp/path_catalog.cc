#include "exp/path_catalog.h"

#include "util/check.h"

namespace nimbus::exp {

std::vector<PathConfig> internet_paths() {
  std::vector<PathConfig> paths;

  // 1-10: deep-buffer paths, mostly inelastic cross traffic ("EC2 to
  // residential host" style, Figs. 18a/18b).  Rates and RTTs span typical
  // broadband access.
  const double rates[] = {24e6, 48e6, 48e6, 96e6, 96e6,
                          96e6, 120e6, 150e6, 192e6, 60e6};
  const double rtts_ms[] = {30, 40, 60, 50, 80, 100, 45, 70, 35, 120};
  for (int i = 0; i < 10; ++i) {
    PathConfig p;
    p.name = "deep-" + std::to_string(i + 1);
    p.rate_bps = rates[i];
    p.rtt = from_ms(rtts_ms[i]);
    p.buffer_bdp = 2.0 + (i % 3);  // 2-4 BDP: bufferbloat territory
    p.inelastic_load = 0.1 + 0.05 * (i % 5);
    paths.push_back(p);
  }

  // 11-18: paths with some elastic competition (shared access links).
  for (int i = 0; i < 8; ++i) {
    PathConfig p;
    p.name = "shared-" + std::to_string(i + 1);
    p.rate_bps = 48e6 + 24e6 * (i % 3);
    p.rtt = from_ms(40 + 15 * (i % 4));
    p.buffer_bdp = 1.5;
    p.inelastic_load = 0.15;
    p.elastic_flows = 1 + (i % 2);
    paths.push_back(p);
  }

  // 19-22: lossy paths (wireless-like random loss, shallow buffers);
  // Cubic suffers here (Fig. 18c).
  for (int i = 0; i < 4; ++i) {
    PathConfig p;
    p.name = "lossy-" + std::to_string(i + 1);
    p.rate_bps = 30e6 + 20e6 * i;
    p.rtt = from_ms(60 + 20 * i);
    p.buffer_bdp = 0.5;
    p.random_loss = 0.005 + 0.005 * i;
    p.inelastic_load = 0.1;
    p.has_queueing = false;
    paths.push_back(p);
  }

  // 23-25: policed paths.
  for (int i = 0; i < 3; ++i) {
    PathConfig p;
    p.name = "policed-" + std::to_string(i + 1);
    p.rate_bps = 100e6;
    p.rtt = from_ms(50 + 25 * i);
    p.buffer_bdp = 1.0;
    p.policer = true;
    p.policer_frac = 0.4 + 0.1 * i;
    p.inelastic_load = 0.05;
    p.has_queueing = false;
    paths.push_back(p);
  }

  NIMBUS_CHECK(paths.size() == 25);
  return paths;
}

ScenarioSpec path_scenario(const std::string& scheme, const PathConfig& path,
                           TimeNs duration, std::uint64_t seed) {
  NIMBUS_CHECK_MSG(seed != 0, "path runs need an explicit nonzero seed");
  ScenarioSpec spec;
  spec.name = "path/" + path.name + "/" + scheme;
  spec.mu_bps = path.rate_bps;
  spec.rtt = path.rtt;
  spec.buffer_bdp = path.buffer_bdp;
  spec.duration = duration;
  if (path.random_loss > 0) {
    spec.random_loss = path.random_loss;
    spec.random_loss_seed = seed * 13 + 7;  // historical formula
  }
  if (path.policer) {
    spec.policer.enabled = true;
    spec.policer.rate_bps = path.policer_frac * path.rate_bps;
    spec.policer.burst_bytes = static_cast<std::int64_t>(
        path.policer_frac * path.rate_bps / 8.0 * to_sec(path.rtt));
  }

  // Protagonist bulk transfer.  Real-path runs estimate mu online (the
  // paper's testbed does not know the bottleneck rate a priori).
  spec.protagonist.scheme = scheme;
  spec.protagonist.known_mu = false;
  spec.protagonist.seed = seed;

  // Cross traffic; ids auto-allocate in order (Poisson first, matching the
  // hand-assembled version: protagonist 1, Poisson 2, elastic 3, 4, ...).
  if (path.inelastic_load > 0) {
    CrossSpec c = CrossSpec::poisson(path.inelastic_load * path.rate_bps, 0);
    c.seed = seed * 31 + 3;
    spec.cross.push_back(c);
  }
  for (int i = 0; i < path.elastic_flows; ++i) {
    CrossSpec c = CrossSpec::flow("cubic", 0);
    c.rtt = path.rtt + from_ms(5 * i);
    c.seed = seed * 17 + static_cast<std::uint64_t>(i);
    spec.cross.push_back(c);
  }
  return spec;
}

}  // namespace nimbus::exp
