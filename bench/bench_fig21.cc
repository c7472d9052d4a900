// Fig. 21 (App. B): p95 flow-completion time of the WAN cross-flows by
// size bucket, per protagonist scheme, normalized to Nimbus.  BBR inflates
// cross-flow FCTs at all sizes; Cubic hurts short flows; Vegas is gentlest
// but sacrifices its own rate.
//
// Declarative form: one ScenarioSpec per scheme (workload in the spec),
// batched through exp::run_sweep; the per-bucket p95 FCTs are reduced from
// the recorder's completions on the worker.
#include <cmath>
#include <iterator>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

constexpr const char* kBuckets[] = {"15KB", "150KB", "1.5MB", "15MB",
                                    "150MB"};

std::size_t bucket_of(std::int64_t bytes) {
  if (bytes <= 15e3) return 0;
  if (bytes <= 150e3) return 1;
  if (bytes <= 1.5e6) return 2;
  if (bytes <= 15e6) return 3;
  return 4;
}

exp::ScenarioSpec make_spec(const std::string& scheme, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig21/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = 0.5;
  spec.workload.seed = 2024;
  return spec;
}

// Cell layout: the p95 FCT (s) per size bucket, in kBuckets order; NaN
// for a bucket with fewer than 5 completions.
exp::CellResult collect(const exp::ScenarioSpec&, exp::ScenarioRun& run) {
  util::Percentiles by_bucket[std::size(kBuckets)];
  for (const auto& c : run.built.net->recorder().completions()) {
    by_bucket[bucket_of(c.bytes)].add(to_sec(c.fct));
  }
  exp::CellResult r;
  for (const util::Percentiles& p : by_bucket) {
    r.values.push_back(p.count() >= 5
                           ? p.percentile(0.95)
                           : std::numeric_limits<double>::quiet_NaN());
  }
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 50);
  std::printf("fig21,bucket,scheme,p95_fct_s,normalized_to_nimbus\n");
  const std::vector<std::string> schemes =
      full_run() ? std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas", "copa"}
                 : std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s, duration));

  // schemes[0] is nimbus, the normalization reference.
  const auto cells = exp::run_sweep(specs, collect);

  bool bbr_worse_somewhere = false;
  bool nimbus_not_worst_short = true;
  for (std::size_t b = 0; b < std::size(kBuckets); ++b) {
    const double nim = cells[0].value(b);
    if (std::isnan(nim)) continue;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const std::string& s = schemes[i];
      const double p95 = cells[i].value(b);
      if (std::isnan(p95)) continue;
      row("fig21", std::string(kBuckets[b]) + "," + s, {p95, p95 / nim});
      if (s == "bbr" && p95 > 1.2 * nim) bbr_worse_somewhere = true;
      if (s == "cubic" && b == 0 && p95 < nim * 0.8) {
        nimbus_not_worst_short = false;
      }
    }
  }
  shape_check("fig21", bbr_worse_somewhere,
              "BBR inflates cross-flow FCTs relative to nimbus");
  shape_check("fig21", nimbus_not_worst_short,
              "nimbus does not hurt short cross-flows more than cubic");
  return shape_exit_code();
}
