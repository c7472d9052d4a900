// Fig. 9: WAN cross-traffic workload (heavy-tailed flow sizes at 50% load
// on a 96 Mbit/s, 50 ms, 2 BDP link).  Rate and RTT CDFs per scheme:
// Nimbus matches Cubic/BBR's throughput at ~50 ms lower median RTT; Vegas
// and Copa lose throughput.
//
// One ScenarioSpec per scheme, run through exp::run_sweep.
#include <map>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

struct Result {
  util::Percentiles rate_mbps;
  util::Percentiles rtt_ms;
};

exp::ScenarioSpec make_spec(const std::string& scheme, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig09/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = 0.5;
  spec.workload.seed = 99;
  return spec;
}

// Cell layout: [n, then the n per-second rate samples (Mbit/s), then the
// RTT samples (ms)], all after the 10 s warmup.
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const auto& rec = run.built.net->recorder();
  const auto rates = exp::rate_series_mbps(rec, 1, from_sec(10), spec.duration);
  exp::CellResult r =
      exp::CellResult::scalar(static_cast<double>(rates.size()));
  r.values.insert(r.values.end(), rates.begin(), rates.end());
  for (double v : rec.rtt_samples(1).values_in(from_sec(10), spec.duration)) {
    r.values.push_back(v);
  }
  return r;
}

Result result_of(const exp::CellResult& cell) {
  Result r;
  const auto& v = cell.values;
  for (std::size_t k = 1; k < v.size(); ++k) {
    (static_cast<double>(k) <= v[0] ? r.rate_mbps : r.rtt_ms).add(v[k]);
  }
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 45);
  std::printf("fig09,series,scheme,x,cdf\n");
  const std::vector<std::string> schemes =
      full_run() ? std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas", "copa", "vivace"}
                 : std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s, duration));

  const auto cells = exp::run_sweep(specs, collect);
  std::map<std::string, Result> results;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    results.emplace(schemes[i], result_of(cells[i]));
  }

  for (auto& [s, r] : results) {
    exp::print_cdf("fig09,rate", s, r.rate_mbps);
    exp::print_cdf("fig09,rtt", s, r.rtt_ms);
    row("fig09", "summary_" + s,
        {mean_of(r.rate_mbps), quantile(r.rtt_ms, 0.5), mean_of(r.rtt_ms)});
  }

  const auto& nim = results.at("nimbus");
  const auto& cub = results.at("cubic");
  const auto& veg = results.at("vegas");
  shape_check("fig09", mean_of(nim.rate_mbps) > 0.7 * mean_of(cub.rate_mbps),
              "nimbus throughput comparable to cubic");
  shape_check("fig09",
              quantile(nim.rtt_ms, 0.5) < quantile(cub.rtt_ms, 0.5) - 15,
              "nimbus median RTT well below cubic");
  shape_check("fig09", mean_of(veg.rate_mbps) < mean_of(nim.rate_mbps),
              "vegas loses throughput relative to nimbus");
  return shape_exit_code();
}
