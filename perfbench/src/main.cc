// perfbench: the repository benchmark program.
//
//   perfbench --workload classify|loss_storm|flow_churn --seed N
//             --seconds S --trace 0|1 [--inject check|digest]
//
// A workload is a fixed batch of ScenarioSpec cells (workloads.h).  One
// run repeats the batch until S seconds have passed (at least kMinReps
// times untraced) and reports the median of each timing over the
// repetitions.  Every cell is checked (it reached its duration under a
// generous RunBudget, per-flow and per-link accounting is consistent, and
// classify cells land on their class's side of the Table 1 0.5 rule) and
// hashed into a digest of its exact counts; every repetition must
// reproduce the first one's digests.  Digests print as "digest ..." lines.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
// metrics instead; each repetition then runs the batch three times:
//   plain      as with --trace 0 (the reference digests and wall time);
//   counted    run_scenario with a benchmark-owned obs::Telemetry attached
//              in the setup hook, plus spans around the calls into exp;
//   decorated  the cells rebuilt by hand with timing decorators around
//              every CcAlgorithm and the QueueDisc (workloads.h).
// Both traced batches must reproduce the plain digests exactly.
//
// --inject is for the self-test: it corrupts cell 0's counts before its
// checks (check) or its digest before the comparison (digest), which must
// be reported as a failed cell.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count cell runs.  The exit code is 0 only when
// every cell passed.
#include <sys/resource.h>

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/elasticity.h"
#include "core/nimbus.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "obs/telemetry.h"
#include "workloads.h"

namespace {

using namespace nimbus;
using perfbench::Cell;
using perfbench::SpanTotals;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;  // untraced repetitions per run, at least
constexpr TimeNs kWarmup = from_sec(10);  // detector warm-up, not scored

// Generous watchdog: every cell must reach spec.duration well inside it.
const exp::RunBudget kBudget{/*max_events=*/4'000'000'000ULL,
                             /*max_wall_seconds=*/60.0};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Bytes the calling thread's malloc arena has handed out.  The serial
// workloads run every cell on the main thread, whose arena this is.
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Per-cell counts, digest and checks.
// ---------------------------------------------------------------------------

struct FlowCounts {
  std::uint64_t id = 0;
  std::uint64_t sent = 0;  // packets, retransmissions included
  std::uint64_t lost = 0;
  std::int64_t acked_bytes = 0;
  std::uint32_t mss = 0;
  bool completed = false;
};

// The exact counts of one cell run: the digest's input and the checks'.
struct CellCounts {
  std::uint64_t events = 0;
  std::vector<FlowCounts> flows;  // creation order; flows[0] = protagonist
  std::int64_t link_bytes = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t mode_reports = 0;
  std::uint64_t mode_switches = 0;
  double competitive_frac = 0.0;  // post-warm-up share of reports
  bool budget_tripped = false;
  TimeNs end_time = 0;
};

CellCounts count_cell(sim::Network& net, const util::TimeSeries* modes,
                      const exp::ScenarioSpec& spec) {
  CellCounts c;
  c.events = net.loop().processed_events();
  c.budget_tripped =
      net.loop().budget_stop() != sim::EventLoop::BudgetStop::kNone;
  c.end_time = net.loop().now();
  for (const auto& f : net.flows()) {
    FlowCounts fc;
    fc.id = f->id();
    fc.sent = f->sent_packets();
    fc.lost = f->lost_packets();
    fc.acked_bytes = f->acked_bytes();
    fc.mss = f->mss();
    fc.completed = f->completed();
    c.flows.push_back(fc);
  }
  c.link_bytes = net.link().delivered_bytes();
  c.link_packets = net.link().delivered_packets();
  c.link_drops = net.link().dropped_packets();
  if (modes != nullptr) {
    const auto& t = modes->times();
    const auto& v = modes->values();
    c.mode_reports = v.size();
    std::uint64_t scored = 0, competitive = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0 && v[i] != v[i - 1]) ++c.mode_switches;
      if (t[i] >= kWarmup && t[i] < spec.duration) {
        ++scored;
        if (v[i] > 0.5) ++competitive;
      }
    }
    if (scored > 0) {
      c.competitive_frac =
          static_cast<double>(competitive) / static_cast<double>(scored);
    }
  }
  return c;
}

// FNV-1a over the exact counts.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t digest_of(const CellCounts& c) {
  Fnv f;
  f.add(c.events);
  f.add(c.flows.size());
  for (const FlowCounts& fl : c.flows) {
    f.add(fl.id);
    f.add(fl.sent);
    f.add(fl.lost);
    f.add(static_cast<std::uint64_t>(fl.acked_bytes));
    f.add(fl.completed ? 1 : 0);
  }
  f.add(static_cast<std::uint64_t>(c.link_bytes));
  f.add(c.link_packets);
  f.add(c.link_drops);
  f.add(c.mode_reports);
  f.add(c.mode_switches);
  return f.h;
}

// Returns "" when the cell passed every output check, else the first
// failure.
std::string check_cell(const CellCounts& c, const Cell& cell) {
  const exp::ScenarioSpec& spec = cell.spec;
  if (c.budget_tripped) return "run budget tripped";
  if (c.end_time < spec.duration) return "stopped before spec.duration";
  for (const FlowCounts& f : c.flows) {
    if (f.lost > f.sent) return "flow lost more packets than it sent";
    if (f.acked_bytes < 0 ||
        static_cast<std::uint64_t>(f.acked_bytes) >
            f.sent * static_cast<std::uint64_t>(f.mss)) {
      return "flow acked more bytes than it sent";
    }
  }
  // One MTU of slack for the floating-point capacity bound.
  const double capacity_bytes = spec.mu_bps * to_sec(spec.duration) / 8.0;
  if (static_cast<double>(c.link_bytes) > capacity_bytes + 1500.0) {
    return "link delivered more than mu x duration";
  }
  if (c.mode_reports == 0) return "protagonist made no reports";
  if (cell.truth >= 0) {  // the Table 1 rule, on classify cells
    const bool elastic = c.competitive_frac > 0.5;
    if (elastic != (cell.truth == 1)) return "cell misclassified (0.5 rule)";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Running cells and batches.
// ---------------------------------------------------------------------------

enum class Phase { kPlain, kCounted, kDecorated };

struct CellOut {
  CellCounts counts;
  std::uint64_t digest = 0;
  std::string failure;  // "" = passed every check
  double accuracy = -1.0;  // share of post-warm-up reports matching truth
  double sim_s = 0.0;
  double setup_s = 0.0;  // run_scenario entry to the setup hook
  double run_s = 0.0;    // setup hook to run_scenario's return
  double score_s = 0.0;  // the per-cell collect
  double wall_s = 0.0;
  // Counted phase.
  std::vector<std::pair<std::string, double>> counters;
  double utilization = 0.0;
  double heap_growth = 0.0;  // bytes still allocated at the collect
  std::size_t arrivals = 0;
  std::vector<double> z;  // protagonist cross-traffic estimates, per report
  // Decorated phase.
  SpanTotals spans;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string inject;  // "", "check" or "digest"
};

void finish_cell(const Cell& cell, bool inject_check, CellOut& out) {
  if (inject_check && !out.counts.flows.empty()) {
    out.counts.flows[0].lost = out.counts.flows[0].sent + 1;
  }
  out.digest = digest_of(out.counts);
  out.failure = check_cell(out.counts, cell);
  out.sim_s = to_sec(out.counts.end_time);
  if (cell.truth >= 0) {
    out.accuracy = cell.truth == 1 ? out.counts.competitive_frac
                                   : 1.0 - out.counts.competitive_frac;
  }
}

// The decorated mirror of the cell (workloads.h).
void run_decorated(const Cell& cell, bool inject_check, CellOut& out) {
  perfbench::MirrorRun m;
  perfbench::run_mirror(cell.spec, &out.spans, kBudget, m);
  out.counts = count_cell(*m.net, &m.modes, cell.spec);
  finish_cell(cell, inject_check, out);
}

// The cell through exp::run_scenario; `counted` attaches telemetry in the
// setup hook and keeps what the per-layer metrics need.
void run_through_exp(const Cell& cell, bool counted, bool inject_check,
                     double heap0, CellOut& out) {
  // Declared before the run so it outlives the network it is attached to.
  obs::Telemetry telemetry(obs::Mode::kCounters);
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_hook = t0;
  exp::ScenarioRun run = exp::run_scenario(
      cell.spec,
      [&](const exp::ScenarioSpec&, exp::BuiltScenario& b) {
        t_hook = Clock::now();
        if (counted) b.net->attach_telemetry(&telemetry);
      },
      kBudget);
  const Clock::time_point t_run = Clock::now();
  out.setup_s = std::chrono::duration<double>(t_hook - t0).count();
  out.run_s = std::chrono::duration<double>(t_run - t_hook).count();
  sim::Network& net = run.built.network();
  const util::TimeSeries* modes =
      run.mode_log != nullptr ? &run.mode_log->series() : nullptr;
  out.counts = count_cell(net, modes, cell.spec);
  finish_cell(cell, inject_check, out);
  if (counted) {
    out.counters = telemetry.metrics.snapshot();
    out.utilization = net.link().utilization();
    out.heap_growth = heap_bytes() - heap0;
    if (run.built.workload != nullptr) {
      out.arrivals = run.built.workload->arrivals().size();
    }
    if (run.z_log != nullptr) out.z = run.z_log->values();
  }
  out.score_s = since(t_run);
}

CellOut run_cell(const Cell& cell, Phase phase, bool inject_check) {
  CellOut out;
  const bool counted = phase == Phase::kCounted;
  const double heap0 = counted ? heap_bytes() : 0.0;
  const Clock::time_point t0 = Clock::now();
  if (phase == Phase::kDecorated) {
    run_decorated(cell, inject_check, out);
  } else {
    run_through_exp(cell, counted, inject_check, heap0, out);
  }
  out.wall_s = since(t0);  // includes tearing the network down
  return out;
}

struct Batch {
  int jobs = 1;
  std::vector<Cell> cells;
  std::vector<CellOut> out;
  double gen_s = 0.0;        // workload generation
  double run_phase_s = 0.0;  // the ParallelRunner call
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Batch run_batch(const Options& o, Phase phase, bool inject_check) {
  Batch b;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  Workload w = perfbench::make_workload(o.workload, o.seed);
  b.jobs = w.jobs;
  b.cells = std::move(w.cells);
  b.out.resize(b.cells.size());
  b.gen_s = since(t0);
  exp::ParallelRunner::Options ro;
  ro.jobs = b.jobs;
  ro.serial = b.jobs == 1;
  exp::ParallelRunner runner(ro);
  const Clock::time_point tr = Clock::now();
  runner.for_each(b.cells.size(), [&](std::size_t i) {
    b.out[i] = run_cell(b.cells[i], phase, inject_check && i == 0);
  });
  b.run_phase_s = since(tr);
  b.wall_s = since(t0);
  b.cpu_s = cpu_seconds() - cpu0;
  return b;
}

// Counts attempted and failed cells of `b`, comparing digests against
// `ref` (the first plain batch of the run).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(Batch& b, const std::vector<std::uint64_t>& ref,
           bool corrupt_digest, const char* phase) {
    for (std::size_t i = 0; i < b.out.size(); ++i) {
      CellOut& c = b.out[i];
      if (corrupt_digest && i == 0) c.digest ^= 1;
      if (c.failure.empty() && c.digest != ref[i]) {
        c.failure = "digest differs from the first plain run";
      }
      ++attempted;
      if (!c.failure.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s cell %zu (%s) failed: %s\n",
                     phase, i, b.cells[i].spec.name.c_str(),
                     c.failure.c_str());
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Per-repetition values of each metric, medianed at the end.
class Samples {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    if (values_.find(name) == values_.end()) order_.push_back({name, unit});
    values_[name].push_back(v);
  }
  std::vector<Metric> medians() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : order_) {
      out.push_back({name, unit, median(values_.at(name))});
    }
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> order_;
  std::map<std::string, std::vector<double>> values_;
};

double sum_sim_s(const Batch& b) {
  double s = 0.0;
  for (const CellOut& c : b.out) s += c.sim_s;
  return s;
}

void add_end_to_end(const Batch& b, Samples& s) {
  double setup = b.gen_s;
  for (const CellOut& c : b.out) setup += c.setup_s;
  s.add("sim_s_per_wall_s", "s/s", sum_sim_s(b) / b.run_phase_s);
  s.add("wall_s", "s", b.wall_s);
  s.add("cpu_s", "s", b.cpu_s);
  s.add("setup_s", "s", setup);
}

// Mean share of post-warm-up reports classified as the cell's ground truth.
double detect_accuracy(const Batch& b) {
  double acc = 0.0;
  int scored = 0;
  for (const CellOut& c : b.out) {
    if (c.accuracy < 0.0) continue;
    acc += c.accuracy;
    ++scored;
  }
  return scored > 0 ? acc / scored : 0.0;
}

std::size_t percentile_of(const std::vector<std::uint64_t>& hist, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t n : hist) total += n;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) {
    seen += hist[d];
    if (static_cast<double>(seen) >= target) return d;
  }
  return hist.size() - 1;
}

// Replays each cell's z log through a fresh detector configured like its
// protagonist's (core::Nimbus derives the same config), timing add_sample
// over the whole replay and each evaluate() call.
void add_detector_replay(const Batch& counted, Samples& s) {
  double add_ns = 0.0, eval_ns = 0.0;
  std::uint64_t adds = 0, evals = 0;
  for (std::size_t i = 0; i < counted.out.size(); ++i) {
    const core::Nimbus::Config& cfg = counted.cells[i].spec.protagonist.nimbus;
    core::DetectorConfig dc;
    dc.sample_rate_hz = cfg.sample_rate_hz;
    dc.duration_sec = cfg.fft_duration_sec;
    dc.eta_threshold = cfg.eta_threshold;
    dc.tracked_freqs_hz = {cfg.fp_competitive_hz, cfg.fp_delay_hz};
    const std::vector<double>& z = counted.out[i].z;
    core::ElasticityDetector feed(dc);
    const Clock::time_point t0 = Clock::now();
    for (double v : z) feed.add_sample(v);
    add_ns += since(t0) * 1e9;
    adds += z.size();
    core::ElasticityDetector det(dc);
    for (double v : z) {
      det.add_sample(v);
      if (!det.ready()) continue;
      const Clock::time_point te = Clock::now();
      det.evaluate(cfg.fp_delay_hz);
      eval_ns += since(te) * 1e9;
      ++evals;
    }
  }
  s.add("core.detector.add_sample_ns", "ns", adds > 0 ? add_ns / adds : 0.0);
  s.add("core.detector.evaluate_ns", "ns", evals > 0 ? eval_ns / evals : 0.0);
}

void add_per_layer(const Batch& plain, const Batch& counted,
                   const Batch& decorated, Samples& s) {
  std::map<std::string, double> ctr;
  double setup = 0.0, score = 0.0, cell_wall = 0.0, run = 0.0, util = 0.0;
  double heap = 0.0, acked = 0.0, sent_bytes = 0.0;
  double p_sent = 0.0, p_lost = 0.0, x_sent = 0.0, x_lost = 0.0;
  double events = 0.0, flows = 0.0, completed = 0.0, arrivals = 0.0;
  double switches = 0.0;
  for (const CellOut& c : counted.out) {
    for (const auto& [name, v] : c.counters) ctr[name] += v;
    setup += c.setup_s;
    score += c.score_s;
    cell_wall += c.wall_s;
    run += c.run_s;
    util += c.utilization;
    heap += c.heap_growth;
    events += static_cast<double>(c.counts.events);
    switches += static_cast<double>(c.counts.mode_switches);
    arrivals += static_cast<double>(c.arrivals);
    for (std::size_t i = 0; i < c.counts.flows.size(); ++i) {
      const FlowCounts& f = c.counts.flows[i];
      acked += static_cast<double>(f.acked_bytes);
      sent_bytes += static_cast<double>(f.sent) * f.mss;
      (i == 0 ? p_sent : x_sent) += static_cast<double>(f.sent);
      (i == 0 ? p_lost : x_lost) += static_cast<double>(f.lost);
      flows += 1.0;
      if (f.completed) completed += 1.0;
    }
  }
  const double n = static_cast<double>(counted.out.size());
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  SpanTotals sp;
  for (const CellOut& c : decorated.out) {
    const SpanTotals& t = c.spans;
    sp.cc_ack_ns += t.cc_ack_ns;
    sp.cc_loss_ns += t.cc_loss_ns;
    sp.cc_report_ns += t.cc_report_ns;
    sp.nimbus_ack_ns += t.nimbus_ack_ns;
    sp.nimbus_loss_ns += t.nimbus_loss_ns;
    sp.nimbus_report_ns += t.nimbus_report_ns;
    sp.queue_enqueue_ns += t.queue_enqueue_ns;
    sp.queue_dequeue_ns += t.queue_dequeue_ns;
    sp.top_ns += t.top_ns;
    if (t.depth_hist.size() > sp.depth_hist.size()) {
      sp.depth_hist.resize(t.depth_hist.size(), 0);
    }
    for (std::size_t d = 0; d < t.depth_hist.size(); ++d) {
      sp.depth_hist[d] += t.depth_hist[d];
    }
  }
  const auto sec = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };

  // exp
  s.add("exp.setup_per_cell_ms", "ms", 1e3 * setup / n);
  s.add("exp.score_s", "s", score);
  s.add("exp.runner.busy_frac", "frac",
        cell_wall / (counted.jobs * counted.run_phase_s));
  // sim: event loop
  s.add("sim.run_s", "s", run);
  s.add("sim.events", "count", events);
  s.add("sim.events_per_s", "1/s", events / run);
  s.add("loop.wheel_inserts", "count", ctr["loop.wheel_inserts"]);
  s.add("loop.far_heap_inserts", "count", ctr["loop.far_heap_inserts"]);
  // The loop's own time: the counted run minus the decorated layers'.
  s.add("sim.self_s", "s", run - sec(sp.top_ns));
  // link / queue
  s.add("link.enqueues", "count", ctr["link.enqueues"]);
  s.add("link.drops.queue", "count", ctr["link.drops.queue"]);
  s.add("link.utilization", "frac", util / n);
  s.add("queue.enqueue_s", "s", sec(sp.queue_enqueue_ns));
  s.add("queue.dequeue_s", "s", sec(sp.queue_dequeue_ns));
  s.add("queue.depth_pkts.p50", "pkts",
        static_cast<double>(percentile_of(sp.depth_hist, 0.50)));
  s.add("queue.depth_pkts.p99", "pkts",
        static_cast<double>(percentile_of(sp.depth_hist, 0.99)));
  // transport
  s.add("transport.acks", "count", ctr["transport.acks"]);
  s.add("transport.retransmits", "count", ctr["transport.retransmits"]);
  s.add("transport.rto_backoffs", "count", ctr["transport.rto_backoffs"]);
  s.add("transport.spurious_rx", "count", ctr["transport.spurious_rx"]);
  s.add("transport.retx_per_ack", "ratio",
        ratio(ctr["transport.retransmits"], ctr["transport.acks"]));
  s.add("transport.goodput_frac", "frac", ratio(acked, sent_bytes));
  s.add("protagonist.lost_frac", "frac", ratio(p_lost, p_sent));
  s.add("cross.lost_frac", "frac", ratio(x_lost, x_sent));
  // flow state
  s.add("transport.flows", "count", flows);
  s.add("transport.flows_completed", "count", completed);
  s.add("traffic.arrivals", "count", arrivals);
  s.add("mem.bytes_per_flow", "B", ratio(heap, flows));
  // cc and core
  s.add("cc.on_ack_s", "s", sec(sp.cc_ack_ns));
  s.add("cc.on_loss_s", "s", sec(sp.cc_loss_ns));
  s.add("cc.on_report_s", "s", sec(sp.cc_report_ns));
  s.add("core.nimbus.on_ack_s", "s", sec(sp.nimbus_ack_ns));
  s.add("core.nimbus.on_report_s", "s", sec(sp.nimbus_report_ns));
  s.add("core.mode_switches", "count", switches);
  s.add("core.detect_accuracy", "frac", detect_accuracy(counted));
  add_detector_replay(counted, s);
  // tracing cost
  s.add("trace.overhead_frac", "frac", counted.wall_s / plain.wall_s - 1.0);
  s.add("trace.decorated_overhead_frac", "frac",
        decorated.wall_s / plain.wall_s - 1.0);
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload classify|loss_storm|flow_churn "
               "--seed N --seconds S --trace 0|1 [--inject check|digest]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      o.trace = v == "1";
    } else if (a == "--inject") {
      if (v != "check" && v != "digest") usage("bad --inject");
      o.inject = v;
    } else {
      usage("unknown argument");
    }
  }
  if (!perfbench::is_workload(o.workload)) usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return o;
}

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Clock::time_point start = Clock::now();
  Tally tally;
  Samples samples;
  std::vector<std::uint64_t> ref;  // the first plain batch's digests
  std::vector<std::string> names;
  const int min_reps = o.trace ? 1 : kMinReps;
  for (int rep = 0;; ++rep) {
    if (rep >= min_reps && since(start) >= o.seconds) break;
    Batch plain = run_batch(o, Phase::kPlain, o.inject == "check" && rep == 0);
    if (rep == 0) {
      for (std::size_t i = 0; i < plain.out.size(); ++i) {
        ref.push_back(plain.out[i].digest);
        names.push_back(plain.cells[i].spec.name);
      }
    }
    // The digest injection needs a comparison: the second plain batch
    // untraced, the counted batch traced.
    tally.add(plain, ref, o.inject == "digest" && rep == 1 && !o.trace,
              "plain");
    std::fprintf(stderr, "perfbench: rep %d plain wall %.4f s cpu %.4f s\n",
                 rep, plain.wall_s, plain.cpu_s);
    if (!o.trace) {
      add_end_to_end(plain, samples);
      continue;
    }
    Batch counted = run_batch(o, Phase::kCounted, false);
    tally.add(counted, ref, o.inject == "digest" && rep == 0, "counted");
    Batch decorated = run_batch(o, Phase::kDecorated, false);
    tally.add(decorated, ref, false, "decorated");
    add_per_layer(plain, counted, decorated, samples);
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("digest %s %zu %s %016llx\n", o.workload.c_str(), i,
                names[i].c_str(), static_cast<unsigned long long>(ref[i]));
  }
  std::vector<Metric> metrics = samples.medians();
  if (!o.trace) metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  const bool correct = tally.failed == 0;
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}
