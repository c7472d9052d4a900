#include "workloads.h"

#include <chrono>
#include <optional>
#include <utility>

#include "cc/const_window.h"
#include "cc/copa.h"
#include "cc/cubic.h"
#include "cc/reno.h"
#include "core/nimbus.h"
#include "exp/runner.h"
#include "sim/queue_disc.h"
#include "traffic/flow_size_dist.h"
#include "traffic/raw_sources.h"
#include "traffic/video_source.h"
#include "util/check.h"

namespace perfbench {

using namespace nimbus;
using exp::CrossSpec;
using exp::ScenarioSpec;

namespace {

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

// Cell counts and lengths.  The serial workloads keep their batches short
// (under a second of wall time), so a run repeats them many times and the
// median over repetitions stays steady on a noisy shared host.
// loss_storm's cost grows faster than linearly with duration (the loss
// scan covers the whole retransmit region), so its length is fixed.
constexpr int kClassifySeedsPerClass = 3;
constexpr double kClassifySeconds = 60.0;
constexpr int kLossStormCells = 1;
constexpr double kLossStormSeconds = 5.0;
constexpr int kFlowChurnCells = 2;
constexpr double kFlowChurnSeconds = 30.0;

// A derived seed that is never 0 ("derive from the scenario seed") nor
// exp::kDefaultBaseSeed (the legacy seeding family).
std::uint64_t explicit_seed(std::uint64_t base, std::uint64_t index) {
  const std::uint64_t s = exp::derive_seed(base, index);
  return s <= exp::kDefaultBaseSeed ? s + 2 : s;
}

// One Nimbus-protagonist cell at 96 Mbit/s, 50 ms RTT, 2 BDP of buffer.
// Every flow seed is explicit, which keeps the cell mirrorable.
ScenarioSpec nimbus_cell(const std::string& name, std::uint64_t seed,
                         double seconds) {
  ScenarioSpec spec;
  spec.name = name;
  spec.mu_bps = 96e6;
  spec.rtt = from_ms(50);
  spec.buffer_bdp = 2.0;
  spec.duration = from_sec(seconds);
  spec.seed = seed;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.seed = explicit_seed(seed, 1);
  return spec;
}

CrossSpec cross_of_kind(CrossSpec::Kind kind, std::uint64_t seed) {
  CrossSpec c;
  c.kind = kind;
  c.id = 2;
  c.seed = seed;
  return c;
}

// The cross flow starts at a seed-drawn offset in [0, max_ms): most cross
// classes draw no random numbers, so without it every seed would give the
// same cell.
TimeNs start_offset(std::uint64_t seed, std::uint64_t max_ms) {
  return from_ms(static_cast<double>(exp::derive_seed(seed, 4) % max_ms));
}

// The Table 1 strict classes: inelastic first, then elastic.
struct Klass {
  const char* name;
  bool elastic;
};
constexpr Klass kClasses[] = {
    {"poisson", false}, {"cbr", false},     {"video", false},
    {"cubic", true},    {"newreno", true},  {"copa", true},
    {"fixed-window", true},
};

Workload classify(std::uint64_t base) {
  Workload w;
  w.jobs = 4;
  std::uint64_t index = 0;
  for (int rep = 0; rep < kClassifySeedsPerClass; ++rep) {
    for (const Klass& k : kClasses) {
      const std::uint64_t seed = explicit_seed(base, index++);
      Cell cell;
      cell.spec = nimbus_cell(std::string("classify/") + k.name, seed,
                              kClassifySeconds);
      cell.truth = k.elastic ? 1 : 0;
      const std::string name = k.name;
      const std::uint64_t cross_seed = explicit_seed(seed, 2);
      CrossSpec c;
      if (name == "poisson") {
        c = CrossSpec::poisson(48e6, 2);
        c.seed = cross_seed;
      } else if (name == "cbr") {
        c = CrossSpec::cbr(48e6, 2);
      } else if (name == "video") {
        c = cross_of_kind(CrossSpec::Kind::kVideo, cross_seed);
        c.rate_bps = 12e6;  // far below the fair share: app-limited
      } else if (name == "fixed-window") {
        c = cross_of_kind(CrossSpec::Kind::kConstWindow, cross_seed);
        c.window_pkts = 400;
      } else {
        c = CrossSpec::flow(name, 2);
        c.seed = cross_seed;
      }
      c.start = start_offset(seed, 1000);
      cell.spec.cross.push_back(c);
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

Workload loss_storm(std::uint64_t base) {
  Workload w;
  for (int i = 0; i < kLossStormCells; ++i) {
    const std::uint64_t seed = explicit_seed(base, i);
    Cell cell;
    cell.spec = nimbus_cell("loss_storm", seed, kLossStormSeconds);
    // A non-responsive window several times BDP + buffer (~1200 packets).
    CrossSpec c = cross_of_kind(CrossSpec::Kind::kConstWindow,
                                explicit_seed(seed, 2));
    c.window_pkts = 4000;
    // A short offset: the storm's cost grows faster than linearly with
    // its length, so a long one would make the work depend on the seed.
    c.start = start_offset(seed, 100);
    cell.spec.cross.push_back(c);
    w.cells.push_back(std::move(cell));
  }
  return w;
}

Workload flow_churn(std::uint64_t base) {
  Workload w;
  for (int i = 0; i < kFlowChurnCells; ++i) {
    const std::uint64_t seed = explicit_seed(base, i);
    Cell cell;
    cell.spec = nimbus_cell("flow_churn", seed, kFlowChurnSeconds);
    cell.spec.workload_enabled = true;
    cell.spec.workload.offered_load_fraction = 0.7;
    cell.spec.workload.dist =
        traffic::FlowSizeDist::bounded_pareto(1.2, 1500, 200000);
    cell.spec.workload.seed = explicit_seed(seed, 3);
    w.cells.push_back(std::move(cell));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Timing decorators.
// ---------------------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Charges its lifetime to one SpanTotals slot, and to top_ns when it is
// the outermost open span.
class Span {
 public:
  Span(SpanTotals* totals, std::int64_t* slot)
      : totals_(totals), slot_(slot), t0_(now_ns()) {
    ++totals_->depth;
  }
  ~Span() {
    const std::int64_t d = now_ns() - t0_;
    *slot_ += d;
    if (--totals_->depth == 0) totals_->top_ns += d;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTotals* totals_;
  std::int64_t* slot_;
  std::int64_t t0_;
};

class TimedCc final : public sim::CcAlgorithm {
 public:
  TimedCc(std::unique_ptr<sim::CcAlgorithm> inner, SpanTotals* totals,
          bool protagonist)
      : inner_(std::move(inner)),
        totals_(totals),
        ack_(protagonist ? &totals->nimbus_ack_ns : &totals->cc_ack_ns),
        loss_(protagonist ? &totals->nimbus_loss_ns : &totals->cc_loss_ns),
        report_(protagonist ? &totals->nimbus_report_ns
                            : &totals->cc_report_ns) {}

  std::string name() const override { return inner_->name(); }
  void init(sim::CcContext& ctx) override { inner_->init(ctx); }
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override {
    Span s(totals_, ack_);
    inner_->on_ack(ctx, ack);
  }
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override {
    Span s(totals_, loss_);
    inner_->on_loss(ctx, loss);
  }
  void on_rto(sim::CcContext& ctx) override {
    Span s(totals_, loss_);
    inner_->on_rto(ctx);
  }
  void on_report(sim::CcContext& ctx, const sim::CcReport& report) override {
    Span s(totals_, report_);
    inner_->on_report(ctx, report);
  }

 private:
  std::unique_ptr<sim::CcAlgorithm> inner_;
  SpanTotals* totals_;
  std::int64_t* ack_;
  std::int64_t* loss_;
  std::int64_t* report_;
};

class TimedQueue final : public sim::QueueDisc {
 public:
  TimedQueue(std::unique_ptr<sim::QueueDisc> inner, SpanTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}

  bool enqueue(const sim::Packet& p, TimeNs now) override {
    const std::size_t depth = inner_->packets();
    if (depth >= totals_->depth_hist.size()) {
      totals_->depth_hist.resize(depth + 1, 0);
    }
    ++totals_->depth_hist[depth];
    Span s(totals_, &totals_->queue_enqueue_ns);
    return inner_->enqueue(p, now);
  }
  std::optional<sim::Packet> dequeue(TimeNs now) override {
    Span s(totals_, &totals_->queue_dequeue_ns);
    return inner_->dequeue(now);
  }
  std::int64_t bytes() const override { return inner_->bytes(); }
  std::size_t packets() const override { return inner_->packets(); }

 private:
  std::unique_ptr<sim::QueueDisc> inner_;
  SpanTotals* totals_;
};

bool known_scheme(const std::string& s) {
  return s == "cubic" || s == "newreno" || s == "copa";
}

std::unique_ptr<sim::CcAlgorithm> make_cc(const std::string& scheme) {
  if (scheme == "cubic") return std::make_unique<cc::Cubic>();
  if (scheme == "newreno") return std::make_unique<cc::Reno>();
  NIMBUS_CHECK_MSG(scheme == "copa", "perfbench: scheme not mirrorable");
  return std::make_unique<cc::Copa>();
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "classify" || name == "loss_storm" || name == "flow_churn";
}

Workload make_workload(const std::string& name, std::uint64_t base_seed) {
  if (name == "classify") return classify(base_seed);
  if (name == "loss_storm") return loss_storm(base_seed);
  NIMBUS_CHECK_MSG(name == "flow_churn", "perfbench: unknown workload");
  return flow_churn(base_seed);
}

bool mirrorable(const ScenarioSpec& spec) {
  if (spec.queue != exp::QueueKind::kDropTail ||
      spec.link.kind != exp::LinkSpec::Kind::kConstant ||
      spec.random_loss > 0 || spec.policer.enabled ||
      spec.impairment.any() || spec.log_copa_mode) {
    return false;
  }
  const exp::ProtagonistSpec& p = spec.protagonist;
  if (!p.enabled || !p.use_nimbus_config || p.id == 0 || p.seed == 0) {
    return false;
  }
  for (const CrossSpec& c : spec.cross) {
    if (c.id == 0 || (c.kind != CrossSpec::Kind::kCbr && c.seed == 0)) {
      return false;
    }
    if (c.kind == CrossSpec::Kind::kNimbus) return false;
    if (c.kind == CrossSpec::Kind::kScheme && !known_scheme(c.scheme)) {
      return false;
    }
  }
  return !spec.workload_enabled ||
         (spec.workload.seed != 0 && !spec.workload.cc_factory);
}

// Mirrors exp::build_network + run_scenario for mirrorable specs: the same
// objects, configured the same way, created in the same order (creation
// order fixes the event loop's tie-breaking).
void run_mirror(const ScenarioSpec& spec, SpanTotals* spans,
                const exp::RunBudget& budget, MirrorRun& out) {
  NIMBUS_CHECK_MSG(mirrorable(spec), "perfbench: spec is not mirrorable");
  const std::int64_t buf_bytes =
      spec.buffer_bytes > 0
          ? spec.buffer_bytes
          : sim::buffer_bytes_for_bdp(spec.mu_bps, spec.rtt, spec.buffer_bdp);
  out.net = std::make_unique<sim::Network>(
      spec.mu_bps,
      std::make_unique<TimedQueue>(
          std::make_unique<sim::DropTailQueue>(buf_bytes), spans));
  sim::Network& net = *out.net;

  const exp::ProtagonistSpec& p = spec.protagonist;
  core::Nimbus::Config cfg = p.nimbus;
  if (cfg.known_mu_bps == 0.0 && p.known_mu) cfg.known_mu_bps = spec.mu_bps;
  auto nimbus = std::make_unique<core::Nimbus>(cfg);
  util::TimeSeries* modes = &out.modes;
  nimbus->set_status_handler([modes](const core::Nimbus::Status& s) {
    modes->add(s.now, s.mode == core::Nimbus::Mode::kCompetitive ? 1.0 : 0.0);
  });
  sim::TransportFlow::Config pc;
  pc.id = p.id;
  pc.rtt_prop = p.rtt > 0 ? p.rtt : spec.rtt;
  pc.start_time = p.start;
  pc.seed = p.seed;
  net.recorder().track_flow(p.id);
  net.add_flow(pc, std::make_unique<TimedCc>(std::move(nimbus), spans, true));

  for (const CrossSpec& c : spec.cross) {
    for (int k = 0; k < c.count; ++k) {
      const sim::FlowId id = c.id + k;
      const TimeNs rtt = c.rtt > 0 ? c.rtt : spec.rtt;
      switch (c.kind) {
        case CrossSpec::Kind::kScheme:
        case CrossSpec::Kind::kConstWindow: {
          sim::TransportFlow::Config fc;
          fc.id = id;
          fc.rtt_prop = rtt;
          fc.start_time = c.start;
          fc.stop_time = c.stop;
          fc.seed = c.seed + k;
          std::unique_ptr<sim::CcAlgorithm> algo =
              c.kind == CrossSpec::Kind::kScheme
                  ? make_cc(c.scheme)
                  : std::make_unique<cc::ConstWindow>(c.window_pkts);
          net.add_flow(fc,
                       std::make_unique<TimedCc>(std::move(algo), spans, false));
          break;
        }
        case CrossSpec::Kind::kPoisson: {
          traffic::PoissonSource::Config sc;
          sc.id = id;
          sc.mean_rate_bps = c.rate_bps;
          sc.start_time = c.start;
          sc.stop_time = c.stop;
          sc.seed = c.seed + k;
          net.reserve_flow_id(id);
          net.add_source(std::make_unique<traffic::PoissonSource>(
              &net.loop(), &net.link(), sc));
          break;
        }
        case CrossSpec::Kind::kCbr: {
          traffic::CbrSource::Config sc;
          sc.id = id;
          sc.rate_bps = c.rate_bps;
          sc.start_time = c.start;
          sc.stop_time = c.stop;
          net.reserve_flow_id(id);
          net.add_source(std::make_unique<traffic::CbrSource>(
              &net.loop(), &net.link(), sc));
          break;
        }
        case CrossSpec::Kind::kVideo: {
          // The video client builds its own (untimed) Cubic flow.
          traffic::VideoSource::Config vc;
          vc.id = id;
          vc.bitrate_bps = c.rate_bps;
          vc.rtt_prop = rtt;
          vc.start_time = c.start;
          vc.stop_time = c.stop;
          vc.seed = c.seed + k;
          net.add_source(std::make_unique<traffic::VideoSource>(&net, vc));
          break;
        }
        case CrossSpec::Kind::kNimbus:
          NIMBUS_CHECK_MSG(false, "perfbench: unreachable (not mirrorable)");
      }
    }
  }

  if (spec.workload_enabled) {
    traffic::FlowWorkload::Config wc = spec.workload;
    wc.cc_factory = [spans]() -> std::unique_ptr<sim::CcAlgorithm> {
      return std::make_unique<TimedCc>(std::make_unique<cc::Cubic>(), spans,
                                       false);
    };
    out.workload = std::make_unique<traffic::FlowWorkload>(&net, wc);
  }
  if (budget.limited()) {
    net.loop().set_run_budget(budget.max_events, budget.max_wall_seconds);
  }
  net.run_until(spec.duration);
}

}  // namespace perfbench
