// Video-streaming scenario (the Fig. 11 motivation): a bulk transfer
// shares a home link with a DASH video stream.  Whether the right thing to
// do is "back off and keep delay low" or "compete" depends on the video's
// bitrate relative to the link — exactly what elasticity detection decides.
//
// Each bitrate is one ScenarioSpec; both run through exp::run_sweep.
//
//   $ ./examples/video_streaming
#include <cstdio>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/summary.h"

using namespace nimbus;

namespace {

exp::ScenarioSpec make_spec(const std::string& name, double video_bps) {
  exp::ScenarioSpec spec;
  spec.name = "video/" + name;
  spec.mu_bps = 48e6;
  spec.duration = from_sec(60);
  spec.protagonist.scheme = "nimbus";  // the bulk transfer, flow 1
  exp::CrossSpec video;
  video.kind = exp::CrossSpec::Kind::kVideo;
  video.id = 2;
  video.rate_bps = video_bps;
  spec.cross.push_back(video);
  return spec;
}

// Cell layout: [video_mbps, bulk_mbps, bulk_rtt_ms, fraction_competitive].
exp::CellResult collect(const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
  const auto& rec = run.built.net->recorder();
  const TimeNs a = from_sec(10), b = spec.duration;
  const exp::FlowSummary bulk = exp::summarize_flow(rec, 1, a, b);
  return exp::CellResult::vec({rec.delivered(2).rate_bps(a, b) / 1e6,
                               bulk.mean_rate_mbps, bulk.mean_rtt_ms,
                               run.mode_log->fraction_competitive(a, b)});
}

}  // namespace

int main() {
  const char* labels[] = {"1080p (8 Mbps):", "4K (40 Mbps):"};
  const std::vector<exp::ScenarioSpec> specs = {
      make_spec("1080p", 8e6),  // app-limited -> inelastic
      make_spec("4k", 40e6),    // network-limited -> elastic
  };

  std::printf("Bulk Nimbus transfer sharing a 48 Mbit/s link with DASH "
              "video:\n\n");
  exp::run_sweep(specs, collect, [&](std::size_t i, exp::CellResult& r) {
    const double comp = r.value(3);
    std::printf(
        "%-18s video %4.1f Mbps | bulk %5.1f Mbps @ %5.1f ms RTT | "
        "mode: %s (%.0f%% competitive)\n",
        labels[i], r.value(0), r.value(1), r.value(2),
        comp > 0.5 ? "TCP-competitive" : "delay-control", comp * 100);
  });
  std::printf(
      "\nThe 1080p stream idles between chunks (application-limited), so\n"
      "Nimbus holds delay-control mode: full residual throughput at low\n"
      "delay, and the video is untouched.  The 4K stream is backlogged\n"
      "(network-limited, ACK-clocked), so Nimbus competes for its fair\n"
      "share instead of being starved like a pure delay scheme would be.\n");
  return 0;
}
