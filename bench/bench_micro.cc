// Microbenchmarks (google-benchmark) for the primitives on the simulator's
// and detector's hot paths: the per-report spectral detector path, the
// event loop, the ACK-path rate sampler, the delivery ByteCounter,
// sweep-cell caching, and end-to-end scenario throughput — exactly the
// set scripts/bench_report.sh runs.  All report items/sec:
//   *EventLoop*/*Timer* benches -> events processed (or scheduled) per second
//   *SimulatedSecond* benches   -> simulated seconds per wall second
//   AckPath/Delivery benches    -> ACK (or delivery) operations per second
//
// Some workloads run twice in one binary so `scripts/bench_report.sh` can
// gate a same-process ratio: the production structure against its
// executable-spec oracle from tests/oracles/ (spectral detector, rate
// sampler), the warm result cache against cold compute, and counters-on
// telemetry against off.  The event-loop and ByteCounter benches are
// single-sided: their banked wins are guarded by deterministic tests
// (allocation and batch-drain tests in tests/event_loop_test.cc, the
// stored-sample count in tests/util_test.cc), and the report records their
// absolute throughput for trajectory.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>

#include "cc/cubic.h"
#include "core/elasticity.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "obs/metrics.h"
#include "oracles/reference_detector.h"
#include "oracles/reference_rate_sampler.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/rate_sampler.h"
#include "util/rng.h"
#include "util/timeseries.h"

namespace nimbus {
namespace {

// --- per-report spectral path: sliding-DFT engine vs recompute ----------

// The detector work one Nimbus report costs in steady state: one z sample
// in, eta at both pulse frequencies (watchers evaluate f_pc AND f_pd every
// report), and the conflict check's band peak.  The incremental variant is
// the production ElasticityDetector (O(tracked_bins) per sample, O(1) per
// bin per query); the reference variant is the from-scratch recompute the
// seed shipped (snapshot + mean removal + window + one O(n) Goertzel per
// scanned bin), the oracle in tests/oracles/reference_detector.h.  Same
// signal, same binary, same flags.  Items = reports.
template <typename Detector>
void spectral_detector_workload(benchmark::State& state) {
  constexpr int kReports = 256;
  Detector det;
  util::Rng rng(5);
  std::size_t t = 0;
  auto z_sample = [&] {
    const double s =
        12e6 +
        6e6 * std::sin(2.0 * M_PI * 5.0 * static_cast<double>(t) / 100.0) +
        rng.normal(0.0, 8e5);
    ++t;
    return s;
  };
  for (int i = 0; i < 600; ++i) det.add_sample(z_sample());
  double sink = 0.0;
  for (auto _ : state) {
    for (int r = 0; r < kReports; ++r) {
      det.add_sample(z_sample());
      sink += det.evaluate(5.0).eta;
      sink += det.evaluate(6.0).eta;
      sink += det.magnitude_near(5.0);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kReports);
}

void BM_SpectralDetectorIncremental(benchmark::State& state) {
  spectral_detector_workload<core::ElasticityDetector>(state);
}
BENCHMARK(BM_SpectralDetectorIncremental);

void BM_SpectralDetectorReference(benchmark::State& state) {
  spectral_detector_workload<oracles::ReferenceElasticityDetector>(state);
}
BENCHMARK(BM_SpectralDetectorReference);

// --- event loop ----------------------------------------------------------

// An ACK-sized payload (pointer + 48 bytes), the hottest real capture.
struct AckSizedEvent {
  std::uint64_t* counter;
  double pad[6];
  void operator()() const { ++*counter; }
};

// Schedule a burst of events at pseudo-random times, then drain.  The
// random times exercise real heap traffic (monotone times degenerate to
// append-only).  Items = events processed.
void BM_EventLoopScheduleFire(benchmark::State& state) {
  constexpr int kEvents = 4096;
  util::Rng rng(11);
  std::vector<TimeNs> delays(kEvents);
  for (auto& d : delays) {
    d = 1 + static_cast<TimeNs>(rng.uniform() * 1e9);
  }
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule_in(delays[static_cast<std::size_t>(i)],
                       AckSizedEvent{&count, {}});
    }
    loop.run_until(from_sec(2));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopScheduleFire);

// Steady-state throughput: a fixed population of self-rescheduling events
// (the shape of a long simulation — every transmission, ACK, and timer
// reschedules something).  The loop is warmed up first, so the pool and
// heap are at their high-water marks and the core runs its zero-allocation
// path.  This is the headline "events per second" number in BENCH_*.json.
// Items = events processed.
void steady_state_workload(benchmark::State& state,
                           obs::MetricsRegistry* metrics) {
  constexpr int kActive = 1024;          // concurrent pending events
  constexpr TimeNs kMaxGap = from_ms(2); // uniform delay in [1, 2 ms)
  sim::EventLoop loop;
  loop.attach_metrics(metrics);  // nullptr = telemetry off
  std::uint64_t count = 0;
  struct Tick {
    sim::EventLoop* loop;
    std::uint64_t* count;
    std::uint64_t rng;  // xorshift64 stream, one per event chain
    double pad[4];      // pad to ACK size (56 bytes)
    void operator()() {
      ++*count;
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const TimeNs delay =
          1 + static_cast<TimeNs>(rng % static_cast<std::uint64_t>(kMaxGap));
      loop->schedule_in(delay, *this);
    }
  };
  for (int i = 0; i < kActive; ++i) {
    loop.schedule_in(1 + i,
                     Tick{&loop, &count,
                          0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1),
                          {}});
  }
  loop.run_until(loop.now() + from_ms(50));  // warm-up to steady state
  std::uint64_t processed = 0;
  for (auto _ : state) {
    const std::uint64_t before = loop.processed_events();
    loop.run_until(loop.now() + from_ms(20));
    processed += loop.processed_events() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  benchmark::DoNotOptimize(count);
}

void BM_EventLoopSteadyState(benchmark::State& state) {
  steady_state_workload(state, nullptr);
}
BENCHMARK(BM_EventLoopSteadyState);

// Counters-on twin of BM_EventLoopSteadyState: the same workload with a
// MetricsRegistry attached, so every fire bumps loop.events_fired and
// every reschedule a wheel/heap insert counter.  This is the telemetry
// overhead the report gates to within 10% of the off number
// (scripts/bench_report.sh: pair floor 0.90).
void BM_EventLoopSteadyStateCountersOn(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  steady_state_workload(state, &metrics);
}
BENCHMARK(BM_EventLoopSteadyStateCountersOn);

// Schedule + cancel churn: each new event cancels the previous pending
// one, so all but the last are cancelled before firing (the transport
// RTO / pacing pattern).  Items = scheduled events.
void BM_EventLoopChurn(benchmark::State& state) {
  constexpr int kEvents = 4096;
  util::Rng rng(13);
  std::vector<TimeNs> delays(kEvents);
  for (auto& d : delays) {
    d = 1 + static_cast<TimeNs>(rng.uniform() * 1e9);
  }
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    std::uint64_t pending_id = 0;
    bool have_pending = false;
    for (int i = 0; i < kEvents; ++i) {
      if (have_pending) loop.cancel(pending_id);
      pending_id = loop.schedule_in(delays[static_cast<std::size_t>(i)],
                                    AckSizedEvent{&count, {}});
      have_pending = true;
    }
    loop.run_until(from_sec(2));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopChurn);

// Per-ACK RTO rearming: the timer is re-armed on every "ACK" and only
// fires once at the end.  Items = rearm operations.
void BM_TimerRearm(benchmark::State& state) {
  constexpr int kRearms = 4096;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    sim::Timer rto(&loop, &fired, [](void* owner) {
      ++*static_cast<std::uint64_t*>(owner);
    });
    for (int i = 0; i < kRearms; ++i) rto.arm_in(from_ms(200));
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kRearms);
}
BENCHMARK(BM_TimerRearm);

// A phase start wakes every flow at once: k events at one deadline, which
// the loop drains as one sorted batch (EventCoreTest pins the batch
// sizes).  Items = events processed.
void BM_EventLoopSameTimeBurst(benchmark::State& state) {
  constexpr int kEvents = 4096;
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule(from_ms(5), AckSizedEvent{&count, {}});
    }
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopSameTimeBurst);

// --- ACK path: rate sampling, prefix-sum ring vs deque re-summation -----

// The real per-ACK pattern: record the sample, then evaluate Eq. (2) over
// one cwnd of packets (Nimbus and BBR read the rates on every ACK).  The
// oracle deque (tests/oracles/reference_rate_sampler.h) re-sums the whole
// window each query.  Items = ACKs.
template <typename Sampler>
void ack_path_rate_sampler_workload(benchmark::State& state) {
  const double cwnd_bytes = state.range(0) * 1500.0;
  constexpr int kAcks = 4096;
  Sampler s;
  TimeNs sent = 0;
  TimeNs acked = from_ms(50);
  double sink = 0;
  for (auto _ : state) {
    for (int a = 0; a < kAcks; ++a) {
      sent += 1'000'000;
      acked += 1'000'000;
      s.on_ack(sent, acked, 1500);
      sink += s.rates_over_window(cwnd_bytes, 1500).send_bps;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}

void BM_AckPathRateSamplerRing(benchmark::State& state) {
  ack_path_rate_sampler_workload<sim::RateSampler>(state);
}
BENCHMARK(BM_AckPathRateSamplerRing)->Arg(64)->Arg(256)->Arg(1024);

void BM_AckPathRateSamplerDequeLegacy(benchmark::State& state) {
  ack_path_rate_sampler_workload<oracles::ReferenceRateSampler>(state);
}
BENCHMARK(BM_AckPathRateSamplerDequeLegacy)->Arg(64)->Arg(256)->Arg(1024);

// --- delivery path: ByteCounter with 1 ms buckets ----------------------

// The recorder's per-flow delivered-bytes counter: adds inside one 1 ms
// bucket overwrite the running cumulative, so a 96 Mbit/s flow stores one
// sample per millisecond instead of one per packet
// (ByteCounterTest.BenchWorkloadStoresOneSamplePerBucket pins the count for
// this exact workload).  Items = adds.
void BM_DeliveryByteCounterBucketed(benchmark::State& state) {
  constexpr int kAdds = 32768;
  constexpr TimeNs kSpacing = 125'000;  // 8000 pkt/s, a 96 Mbit/s flow
  std::int64_t sink = 0;
  for (auto _ : state) {
    util::ByteCounter c;
    TimeNs t = 0;
    for (int i = 0; i < kAdds; ++i) {
      t += kSpacing;
      c.add(t, 1500);
    }
    // The consumer side: one per-second reduction, as the benches do.
    sink += static_cast<std::int64_t>(
        c.bucket_rates_bps(0, kAdds * kSpacing, from_sec(1)).size());
    sink += c.total();
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(c.samples());
  }
  state.SetItemsProcessed(state.iterations() * kAdds);
}
BENCHMARK(BM_DeliveryByteCounterBucketed);

// --- sweep cells: warm disk cache vs cold compute -----------------------

// The PR 7 content-addressed sweep engine: a cell that is in the result
// cache costs one small-file read + checksum instead of a network build
// and event-loop run.  Cold runs the real simulation (cache off); warm
// serves the identical cells from a pre-populated cache directory.  Both
// run the same run_sweep entry point single-threaded, so the
// ratio is the per-cell memoisation speedup the suite-level wall-clock
// numbers in BENCH_PR7.json are built from.  Items = sweep cells.
std::vector<exp::ScenarioSpec> sweep_cell_specs() {
  std::vector<exp::ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    exp::ScenarioSpec spec;
    spec.name = "bench/sweep-cell";
    spec.mu_bps = 96e6;
    spec.duration = from_sec(2);
    spec.protagonist.use_nimbus_config = true;
    spec.cross.push_back(exp::CrossSpec::poisson(24e6, 2));
    spec.cross.push_back(exp::CrossSpec::flow("cubic", 3));
    specs.push_back(spec.with_seed(exp::derive_seed(31, i)));
  }
  return specs;
}

exp::CellResult sweep_cell_collect(const exp::ScenarioSpec& spec,
                                   exp::ScenarioRun& run) {
  return exp::CellResult::scalar(
      run.built.net->recorder().delivered(1).rate_bps(from_sec(1),
                                                      spec.duration));
}

void BM_SweepCellWarmCache(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto specs = sweep_cell_specs();
  const fs::path dir =
      fs::temp_directory_path() / "nimbus-bench-sweep-cache";
  fs::remove_all(dir);
  exp::RunConfig cfg;
  cfg.cache_dir = dir.string();
  cfg.cache_mode = exp::ResultCache::Mode::kReadWrite;
  exp::run_sweep(specs, sweep_cell_collect, nullptr, nullptr, cfg);
  cfg.cache_mode = exp::ResultCache::Mode::kRead;
  bool all_hits = true;
  for (auto _ : state) {
    const auto cells =
        exp::run_sweep(specs, sweep_cell_collect, nullptr, nullptr, cfg);
    for (const exp::CellResult& c : cells) all_hits &= c.from_cache;
    benchmark::DoNotOptimize(cells);
  }
  if (!all_hits) {
    state.SkipWithError("warm cache missed; measurement invalid");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_SweepCellWarmCache);

void BM_SweepCellColdCompute(benchmark::State& state) {
  const auto specs = sweep_cell_specs();
  const exp::RunConfig uncached;  // one job, no cache, no shard
  for (auto _ : state) {
    const auto cells = exp::run_sweep(specs, sweep_cell_collect, nullptr,
                                      nullptr, uncached);
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_SweepCellColdCompute)->Unit(benchmark::kMillisecond);

// --- end-to-end scenario throughput -------------------------------------

void BM_SimulatedSecondCubic(benchmark::State& state) {
  // Cost of simulating one second of a saturated 96 Mbit/s link.
  for (auto _ : state) {
    sim::Network net(96e6, 1 << 21);
    sim::TransportFlow::Config fc;
    fc.id = 1;
    fc.rtt_prop = from_ms(50);
    net.add_flow(fc, std::make_unique<cc::Cubic>());
    net.run_until(from_sec(1));
    benchmark::DoNotOptimize(net.recorder().delivered(1).total());
  }
  state.SetItemsProcessed(state.iterations());  // simulated seconds
}
BENCHMARK(BM_SimulatedSecondCubic)->Unit(benchmark::kMillisecond);

void BM_SimulatedSecondScenario(benchmark::State& state) {
  // A fig08-style scenario slice: Nimbus protagonist + Poisson + Cubic
  // cross traffic on 96 Mbit/s, 10 simulated seconds per iteration.
  // items/sec = simulated seconds per wall second.
  constexpr double kSimSeconds = 10.0;
  exp::ScenarioSpec spec;
  spec.name = "bench/scenario-slice";
  spec.mu_bps = 96e6;
  spec.duration = from_sec(kSimSeconds);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(exp::CrossSpec::poisson(16e6, 2));
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 3));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::ScenarioRun run = exp::run_scenario(spec);
    events += run.built.net->loop().processed_events();
    benchmark::DoNotOptimize(run.built.net->loop().processed_events());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimSeconds));
  state.counters["events_per_sim_sec"] = benchmark::Counter(
      static_cast<double>(events) /
      (static_cast<double>(state.iterations()) * kSimSeconds));
}
BENCHMARK(BM_SimulatedSecondScenario)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nimbus

BENCHMARK_MAIN();
