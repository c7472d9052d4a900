// Fig. 20 (App. A): loss-based vs delay-based on one path, many runs with
// varying cross traffic.  Scatter of mean throughput vs mean delay for
// Cubic and the Nimbus delay algorithm (BasicDelay without mode
// switching): the delay scheme matches throughput at far lower delay when
// cross traffic is predominantly inelastic.
//
// Declarative form: one ScenarioSpec per (scheme, run index) cell — the
// short-flow workload lives in the spec's FlowWorkload config — batched
// through exp::run_sweep.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& scheme, double load,
                            std::uint64_t seed, TimeNs duration) {
  const double mu = 48e6;
  exp::ScenarioSpec spec;
  spec.name = "fig20/" + scheme;
  spec.mu_bps = mu;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = load;
  // Mostly-inelastic cross traffic: bounded sizes keep flows short.
  spec.workload.dist = traffic::FlowSizeDist::bounded_pareto(1.3, 2000,
                                                             300e3);
  spec.workload.seed = seed;
  return spec;
}

}  // namespace

int main() {
  const TimeNs duration = dur(60, 25);
  // PR 4 widened the quick-mode scatter from 6 to 10 runs per scheme (the
  // paper reports an aggregate over many runs; the sweep runner absorbs
  // the extra cells on multicore hosts).  Quick-mode golden output
  // re-baselined deliberately — see CHANGES.md.
  const int runs = full_run() ? 20 : 10;
  std::printf("fig20,scheme,run,rate_mbps,mean_rtt_ms\n");

  // Per run index: cubic then basic-delay, the hand-rolled order.
  std::vector<exp::ScenarioSpec> specs;
  for (int i = 0; i < runs; ++i) {
    const double load = 0.2 + 0.04 * (i % 5);
    specs.push_back(make_spec("cubic", load, 1000 + i, duration));
    specs.push_back(make_spec("basic-delay", load, 1000 + i, duration));
  }

  util::OnlineStats cubic_rate, cubic_rtt, bd_rate, bd_rtt;
  // Cell layout: [mean_rate_mbps, mean_rtt_ms].
  exp::run_sweep(
      specs,
      [](const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
        const auto s = exp::summarize_flow(run.built.net->recorder(), 1,
                                           from_sec(10), spec.duration);
        return exp::CellResult::vec({s.mean_rate_mbps, s.mean_rtt_ms});
      },
      {},
      [&](std::size_t i, exp::CellResult& r) {
        const int run_idx = static_cast<int>(i / 2);
        const double rate = r.value(0), rtt = r.value(1);
        if (i % 2 == 0) {
          row("fig20", "cubic," + std::to_string(run_idx), {rate, rtt});
          cubic_rate.add(rate);
          cubic_rtt.add(rtt);
        } else {
          row("fig20", "basic-delay," + std::to_string(run_idx), {rate, rtt});
          bd_rate.add(rate);
          bd_rtt.add(rtt);
        }
      });

  row("fig20", "summary",
      {cubic_rate.mean(), cubic_rtt.mean(), bd_rate.mean(), bd_rtt.mean()});
  shape_check("fig20", bd_rtt.mean() < cubic_rtt.mean() - 15,
              "delay-based scheme runs at much lower delay");
  shape_check("fig20", bd_rate.mean() > 0.7 * cubic_rate.mean(),
              "with inelastic-dominated cross traffic, similar throughput");
  return shape_exit_code();
}
