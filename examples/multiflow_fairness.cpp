// Multi-flow coordination (paper section 6 / Fig. 16): several Nimbus
// flows share a bottleneck using the pulser/watcher protocol — one flow
// pulses, the rest read its mode from the FFT of their own receive rate,
// with a decentralized election and no explicit communication.
//
//   $ ./examples/multiflow_fairness [n_flows]    (1-16, default 3)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "util/stats.h"

using namespace nimbus;

int main(int argc, char** argv) {
  char* end = nullptr;
  const long n = argc > 1 ? std::strtol(argv[1], &end, 10) : 3;
  if (argc > 2 || (argc > 1 && (end == argv[1] || *end != '\0')) || n < 1 ||
      n > 16) {
    std::fprintf(stderr, "usage: %s [n_flows]    (1-16, default 3)\n",
                 argv[0]);
    return 2;
  }

  exp::ScenarioSpec spec;
  spec.name = "multiflow";
  spec.mu_bps = 96e6;
  spec.duration = from_sec(120);
  spec.protagonist.enabled = false;
  core::Nimbus::Config cfg;
  cfg.known_mu_bps = spec.mu_bps;
  cfg.multiflow = true;  // enable the pulser/watcher protocol
  // n Nimbus flows at ids 1..n; replica k runs with seed 100 + k.
  exp::CrossSpec flows = exp::CrossSpec::nimbus_flow(cfg, 1, 100);
  flows.count = static_cast<int>(n);
  spec.cross.push_back(flows);

  // Sample every flow's role and mode at the end of each 10 s row, on the
  // simulation loop (scheduled before the run starts).
  constexpr int kRows = 12;
  std::vector<std::string> roles(kRows), modes(kRows);
  const exp::ScenarioSetup sample = [&](const exp::ScenarioSpec&,
                                        exp::BuiltScenario& built) {
    for (int row = 0; row < kRows; ++row) {
      built.net->loop().schedule(
          from_sec(10 * (row + 1)), [&built, &roles, &modes, row]() {
            for (const core::Nimbus* f : built.nimbus_cross) {
              roles[row] +=
                  f->role() == core::Nimbus::Role::kPulser ? 'P' : 'w';
              modes[row] += f->mode() == core::Nimbus::Mode::kDelay ? 'd' : 'C';
            }
          });
    }
  };
  const exp::ScenarioRun run = exp::run_scenario(spec, sample);
  const sim::Recorder& rec = run.built.net->recorder();

  std::printf("time   roles   modes   rates (Mbps)%*s  qdelay  Jain\n",
              4 * n - 12 > 0 ? static_cast<int>(4 * n - 12) : 0, "");
  for (int row = 0; row < kRows; ++row) {
    const TimeNs a = from_sec(10 * row), b = from_sec(10 * (row + 1));
    std::vector<double> rates;
    for (sim::FlowId id = 1; id <= n; ++id) {
      rates.push_back(rec.delivered(id).rate_bps(a, b));
    }
    std::printf("%3d s  %-6s  %-6s  ", 10 * (row + 1), roles[row].c_str(),
                modes[row].c_str());
    for (double r : rates) std::printf("%5.1f ", r / 1e6);
    std::printf(" %5.1f ms  %.2f\n",
                rec.probed_queue_delay().mean_in(a, b).value_or(0.0),
                util::jain_fairness(rates));
  }
  std::printf(
      "\nExpected shape: the link stays fully used with no explicit\n"
      "communication channel.  With 2 flows the election settles on one\n"
      "'P' (pulser), both flows stay in 'd' (delay mode) at ~13 ms of\n"
      "queueing, and the shares drift apart (Jain 1.00 down to ~0.8).  With\n"
      "3 flows, rows often show no pulser or two 'P's, most flows sit in\n"
      "'C' (competitive mode), queueing runs 8-50 ms, and Jain stays\n"
      "0.8-1.0.  The paper's shape (one pulser, every flow in delay mode,\n"
      "fair shares) is not reproduced yet: see the fig16 known-warn item\n"
      "in ROADMAP.md.\n");
  return 0;
}
