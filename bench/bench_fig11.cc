// Fig. 11: video cross traffic on a 48 Mbit/s, 50 ms link.  A 1080p-like
// stream (bitrate well below capacity) is application-limited (inelastic);
// a 4K-like stream (bitrate near capacity) is network-limited (elastic).
// Scatter of protagonist throughput vs mean delay per scheme.
//
// Declarative form: one ScenarioSpec per (scheme, bitrate) cell with a
// CrossSpec::kVideo entry, batched through exp::run_sweep; collect
// reduces each run to its (rate, delay) pair (a CellResult, memoised under
// NIMBUS_CACHE).
#include "common.h"

#include <map>

using namespace nimbus;
using namespace nimbus::bench;

namespace {

struct Point {
  double rate_mbps;
  double mean_rtt_ms;
};

exp::ScenarioSpec spec_for(const std::string& scheme, double video_bitrate,
                           TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig11/" + scheme;
  spec.mu_bps = 48e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  exp::CrossSpec video;
  video.kind = exp::CrossSpec::Kind::kVideo;
  video.rate_bps = video_bitrate;
  spec.cross.push_back(video);
  return spec;
}

}  // namespace

int main() {
  const TimeNs duration = dur(90, 40);
  std::printf("fig11,quality,scheme,rate_mbps,mean_rtt_ms\n");
  const std::vector<std::string> schemes =
      full_run() ? std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas", "copa", "vivace"}
                 : std::vector<std::string>{"nimbus", "cubic", "vegas",
                                            "copa"};

  // Specs in the hand-rolled version's execution order: per scheme, the
  // 1080p (8 Mbit/s) cell then the 4K (40 Mbit/s) cell.
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) {
    specs.push_back(spec_for(s, 8e6, duration));
    specs.push_back(spec_for(s, 40e6, duration));
  }

  std::map<std::string, Point> p1080, p4k;
  exp::run_sweep(
      specs,
      [](const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
        const auto s = exp::summarize_flow(run.built.net->recorder(), 1,
                                           from_sec(10), spec.duration);
        return exp::CellResult::vec({s.mean_rate_mbps, s.mean_rtt_ms});
      },
      {},
      [&](std::size_t i, exp::CellResult& r) {
        Point p{r.value(0), r.value(1)};
        const auto& scheme = schemes[i / 2];
        if (i % 2 == 0) {
          p1080[scheme] = p;
        } else {
          p4k[scheme] = p;
          row("fig11", "1080p," + scheme,
              {p1080[scheme].rate_mbps, p1080[scheme].mean_rtt_ms});
          row("fig11", "4k," + scheme, {p.rate_mbps, p.mean_rtt_ms});
        }
      });

  shape_check("fig11",
              p1080["nimbus"].rate_mbps > 0.75 * p1080["cubic"].rate_mbps &&
                  p1080["nimbus"].mean_rtt_ms <
                      p1080["cubic"].mean_rtt_ms - 10,
              "1080p: nimbus matches cubic's rate at much lower delay");
  shape_check("fig11",
              p4k["vegas"].rate_mbps < 0.6 * p4k["nimbus"].rate_mbps,
              "4k: vegas cannot compete with the elastic video");
  shape_check("fig11",
              p4k["nimbus"].rate_mbps > 0.5 * p4k["cubic"].rate_mbps,
              "4k: nimbus keeps a cubic-like share vs elastic video");
  return shape_exit_code();
}
