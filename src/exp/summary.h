// Per-flow performance summaries used by benches and examples.
#pragma once

#include <vector>

#include "sim/network.h"
#include "util/stats.h"
#include "util/time.h"

namespace nimbus::exp {

struct FlowSummary {
  double mean_rate_mbps = 0.0;
  double mean_rtt_ms = 0.0;            // tracked flows only
  double median_rtt_ms = 0.0;          // tracked flows only
  double p95_rtt_ms = 0.0;             // tracked flows only
  double mean_queue_delay_ms = 0.0;   // tracked flows only
  double median_queue_delay_ms = 0.0; // tracked flows only
};

/// Summarizes flow `id` over [t0, t1) from the recorder's byte counters
/// and, if the flow is tracked, its RTT samples and per-packet queueing
/// delays (untracked flows report 0 for both).
FlowSummary summarize_flow(const sim::Recorder& rec, sim::FlowId id,
                           TimeNs t0, TimeNs t1);

/// Rate CDF input: per-bucket throughput (Mbit/s) over [t0, t1).
std::vector<double> rate_series_mbps(const sim::Recorder& rec,
                                     sim::FlowId id, TimeNs t0, TimeNs t1,
                                     TimeNs bucket = from_sec(1));

/// Prints a CDF as `label,x,p` rows to stdout through the given prefix.
void print_cdf(const std::string& prefix, const std::string& label,
               const util::Percentiles& samples, std::size_t points = 21);

}  // namespace nimbus::exp
