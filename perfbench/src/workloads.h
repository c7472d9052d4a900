// The benchmark's workloads and the decorated mirror of a scenario.
//
// A workload is a fixed list of ScenarioSpec cells, generated from the base
// seed with exp::derive_seed.  Every flow seed in a cell is explicit, so a
// cell can be rebuilt by hand through sim::Network's public API with timing
// decorators around the CcAlgorithm and QueueDisc objects (run_mirror).
// The mirror must do exactly the work exp::run_scenario does; the caller
// proves it by comparing the two runs' count digests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "sim/network.h"
#include "traffic/flow_workload.h"
#include "util/timeseries.h"

namespace perfbench {

struct Cell {
  nimbus::exp::ScenarioSpec spec;
  int truth = -1;  // ground truth: 1 elastic cross, 0 inelastic, -1 none
};

struct Workload {
  int jobs = 1;  // exp::ParallelRunner worker count
  std::vector<Cell> cells;
};

bool is_workload(const std::string& name);

/// The named workload's cells, seeded from `base_seed`.
Workload make_workload(const std::string& name, std::uint64_t base_seed);

/// Wall time spent inside decorated calls during one mirrored run.  Spans
/// can nest (a callback that reaches another decorated object), so
/// `top_ns` counts only outermost spans: it is the part of the event loop's
/// time that belongs to the decorated layers.
struct SpanTotals {
  std::int64_t cc_ack_ns = 0;  // cross-traffic CcAlgorithm::on_ack
  std::int64_t cc_loss_ns = 0;  // cross-traffic on_loss + on_rto
  std::int64_t cc_report_ns = 0;  // cross-traffic on_report
  std::int64_t nimbus_ack_ns = 0;  // protagonist core::Nimbus::on_ack
  std::int64_t nimbus_loss_ns = 0;  // protagonist on_loss + on_rto
  std::int64_t nimbus_report_ns = 0;  // protagonist on_report
  std::int64_t queue_enqueue_ns = 0;
  std::int64_t queue_dequeue_ns = 0;
  std::int64_t top_ns = 0;
  int depth = 0;
  /// Queue depth in packets seen by each arriving packet, as counts per
  /// depth (index = depth).
  std::vector<std::uint64_t> depth_hist;
};

/// A mirrored run: the network plus what exp::run_scenario would have
/// attached to it.  `workload` is declared after `net` so it is destroyed
/// first (it holds a pointer to the network).
struct MirrorRun {
  std::unique_ptr<nimbus::sim::Network> net;
  std::unique_ptr<nimbus::traffic::FlowWorkload> workload;
  nimbus::util::TimeSeries modes;  // protagonist mode per report, 1 = competitive
};

/// True if run_mirror can rebuild the spec exactly (the features the
/// benchmark's workloads use, with every seed explicit).
bool mirrorable(const nimbus::exp::ScenarioSpec& spec);

/// Builds the spec through sim::Network's public API with timing
/// decorators charging `spans`, and runs it to spec.duration under
/// `budget`.  `spans` must outlive `out`.
void run_mirror(const nimbus::exp::ScenarioSpec& spec, SpanTotals* spans,
                const nimbus::exp::RunBudget& budget, MirrorRun& out);

}  // namespace perfbench
