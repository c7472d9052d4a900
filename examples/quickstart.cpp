// Quickstart: the smallest end-to-end use of the library.
//
// Declares a 48 Mbit/s bottleneck with one Nimbus flow against cross
// traffic that changes from inelastic (CBR) to elastic (Cubic) halfway
// through, runs it, and prints what the elasticity detector concluded and
// what it did about it.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "exp/scenario.h"

using namespace nimbus;

int main() {
  // 1. A network: 48 Mbit/s bottleneck, 50 ms propagation RTT, 2 BDP of
  //    DropTail buffering (the paper's standard setup, Fig. 1; RTT and
  //    buffer are the spec defaults).
  exp::ScenarioSpec spec;
  spec.name = "quickstart";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(120);

  // 2. The protagonist: a backlogged Nimbus flow, id 1 (the default).  The
  //    spec tells it the link rate (controlled experiment); set
  //    spec.protagonist.known_mu = false to have it estimated online.
  spec.protagonist.scheme = "nimbus";

  // 3. Cross traffic: inelastic 24 Mbit/s CBR for the first 60 s, then a
  //    long-running Cubic flow for the next 60 s.
  spec.cross.push_back(exp::CrossSpec::cbr(24e6, 2, 0, from_sec(60)));
  exp::CrossSpec cubic = exp::CrossSpec::flow("cubic", 3, from_sec(60));
  cubic.seed = 1;
  spec.cross.push_back(cubic);

  // 4. Run 120 simulated seconds.  The run logs Nimbus's decisions from
  //    its status stream (run.mode_log, run.eta_log).
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const sim::Recorder& rec = run.built.net->recorder();

  // 5. Report per-10s stats.
  std::printf(
      "time     mode       eta   nimbus_rate  cross_rate  queue_delay\n");
  for (int t = 10; t <= 120; t += 10) {
    const TimeNs a = from_sec(t - 10), b = from_sec(t);
    const double comp = run.mode_log->fraction_competitive(a, b);
    std::printf(
        "%3d s    %-9s %5.2f  %7.1f Mbps %7.1f Mbps %8.1f ms\n", t,
        comp > 0.5 ? "compete" : "delay",
        run.eta_log->mean_in(a, b).value_or(0.0),
        rec.delivered(1).rate_bps(a, b) / 1e6,
        (rec.delivered(2).rate_bps(a, b) + rec.delivered(3).rate_bps(a, b)) /
            1e6,
        rec.probed_queue_delay().mean_in(a, b).value_or(0.0));
  }

  std::printf(
      "\nExpected shape: delay mode at ~12.5 ms queueing for the 60 s of CBR,"
      "\nthen a switch to TCP-competitive mode within ~5-10 s of the Cubic"
      "\narriving, holding roughly the 24 Mbit/s fair share.\n");
  return 0;
}
