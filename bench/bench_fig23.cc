// Fig. 23 (App. D.1): Copa vs Nimbus against CBR cross traffic at 24 and
// 80 Mbit/s on a 96 Mbit/s link.  At 24M both hold low delay; at 80M Copa
// misclassifies (cannot drain the queue in 5 RTTs), turns competitive and
// drives delay up, while Nimbus stays in delay mode at low delay.
//
// Declarative form: one ScenarioSpec per (scheme, CBR rate) cell batched
// through exp::run_sweep; time-series panels print per cell from the
// in-order result callback.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& scheme, double cbr_rate,
                            TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig23/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.cross.push_back(exp::CrossSpec::cbr(cbr_rate, 2));
  return spec;
}

// Cell layout: [rate_mbps, qdelay_ms (both after 10 s), then per second:
// t, rate_mbps, qdelay_ms].
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const TimeNs duration = spec.duration;
  auto& rec = run.built.net->recorder();
  exp::CellResult r = exp::CellResult::vec(
      {rec.delivered(1).rate_bps(from_sec(10), duration) / 1e6,
       rec.probed_queue_delay()
           .mean_in(from_sec(10), duration)
           .value_or(0.0)});
  for (TimeNs t = from_sec(1); t < duration; t += from_sec(1)) {
    r.values.insert(
        r.values.end(),
        {to_sec(t), rec.delivered(1).rate_bps(t - from_sec(1), t) / 1e6,
         rec.probed_queue_delay()
             .mean_in(t - from_sec(1), t)
             .value_or(0.0)});
  }
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(60, 40);
  std::printf("fig23,scheme,cbr_mbps,second,rate_mbps,qdelay_ms\n");
  // copa then nimbus at 24M, copa then nimbus at 80M — the hand-rolled
  // execution order.
  struct Cell {
    std::string scheme;
    double cbr;
  };
  const std::vector<Cell> cells = {
      {"copa", 24e6}, {"nimbus", 24e6}, {"copa", 80e6}, {"nimbus", 80e6}};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& c : cells) {
    specs.push_back(make_spec(c.scheme, c.cbr, duration));
  }

  const auto results = exp::run_sweep(
      specs, collect, {},
      [&](std::size_t i, exp::CellResult& r) {
        const auto& v = r.values;
        for (std::size_t k = 2; k + 3 <= v.size(); k += 3) {
          row("fig23",
              cells[i].scheme + "," + util::format_num(cells[i].cbr / 1e6) +
                  "," + util::format_num(v[k]),
              {v[k + 1], v[k + 2]});
        }
      });

  const exp::CellResult& copa_lo = results[0];
  const exp::CellResult& nim_lo = results[1];
  const exp::CellResult& copa_hi = results[2];
  const exp::CellResult& nim_hi = results[3];
  row("fig23", "summary_24M",
      {copa_lo.value(0), copa_lo.value(1), nim_lo.value(0),
       nim_lo.value(1)});
  row("fig23", "summary_80M",
      {copa_hi.value(0), copa_hi.value(1), nim_hi.value(0),
       nim_hi.value(1)});
  shape_check("fig23", copa_lo.value(1) < 40 && nim_lo.value(1) < 40,
              "24M CBR: both keep low delay");
  shape_check("fig23", nim_hi.value(1) < copa_hi.value(1),
              "80M CBR: copa's misclassification raises its delay above "
              "nimbus's");
  return shape_exit_code();
}
