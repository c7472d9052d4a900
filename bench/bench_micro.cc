// Microbenchmarks (google-benchmark) for the primitives on the simulator's
// and detector's hot paths: FFT (radix-2 and Bluestein), Goertzel, the
// elasticity evaluation, the event loop, queue disciplines, and end-to-end
// scenario throughput.
//
// The event-loop benchmarks run each workload against both the current
// allocation-free core (sim::EventLoop) and the seed implementation
// (bench/legacy_event_loop.h: priority_queue + unordered_map<id,
// std::function>), so `scripts/bench_report.sh` can report before/after
// events-per-second from a single binary.  All report items/sec:
//   *EventLoop* benches      -> events processed (or scheduled) per second
//   *SimulatedSecond* benches -> simulated seconds per wall second
// The PR 3 ACK-path benchmarks follow the same pattern: each workload runs
// against the current seq-indexed ring structures and a verbatim copy of
// the PR 2 node-based implementation (std::map outstanding tracking, deque
// rate sampler, map/set recorder), so the speedup is same-host and
// same-flags.  All report items/sec = ACK (or delivery) operations.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <type_traits>

#include "cc/cubic.h"
#include "cc/reno.h"
#include "cc/vegas.h"
#include "core/elasticity.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "legacy_event_loop.h"
#include "obs/metrics.h"
#include "pr2_event_loop.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/rate_sampler.h"
#include "sim/recorder.h"
#include "sim/seq_ring.h"
#include "spectral/fft.h"
#include "spectral/goertzel.h"
#include "util/rng.h"

namespace nimbus {
namespace {

std::vector<double> random_signal(std::size_t n) {
  util::Rng rng(5);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

void BM_FftRadix2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<spectral::Complex> data(n);
  util::Rng rng(7);
  for (auto& c : data) c = {rng.uniform(-1, 1), 0.0};
  for (auto _ : state) {
    auto copy = data;
    spectral::fft_radix2(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_FftRadix2)->Arg(256)->Arg(512)->Arg(4096);

void BM_FftBluestein500(benchmark::State& state) {
  const auto sig = random_signal(500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::magnitude_spectrum(sig));
  }
}
BENCHMARK(BM_FftBluestein500);

void BM_Goertzel500(benchmark::State& state) {
  const auto sig = random_signal(500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::goertzel_magnitude(sig, 25));
  }
}
BENCHMARK(BM_Goertzel500);

void BM_ElasticityEvaluate(benchmark::State& state) {
  core::ElasticityDetector det;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) det.add_sample(rng.uniform(0, 1e8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.evaluate(5.0));
  }
}
BENCHMARK(BM_ElasticityEvaluate);

// --- per-report spectral path: sliding-DFT engine vs recompute ----------

// The detector work one Nimbus report costs in steady state: one z sample
// in, eta at both pulse frequencies (watchers evaluate f_pc AND f_pd every
// report), and the conflict check's band peak.  The incremental variant is
// the production ElasticityDetector (O(tracked_bins) per sample, O(1) per
// bin per query); the reference variant is the from-scratch recompute the
// seed shipped (snapshot + mean removal + window + one O(n) Goertzel per
// scanned bin), kept in-tree as ReferenceElasticityDetector.  Same signal,
// same binary, same flags.  Items = reports.
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
  spectral_detector_workload<core::ReferenceElasticityDetector>(state);
}
BENCHMARK(BM_SpectralDetectorReference);

// --- event loop: current core vs seed baseline --------------------------

// An ACK-sized payload (pointer + 48 bytes), the hottest real capture.
template <typename Counter>
struct AckSizedEvent {
  Counter* counter;
  double pad[6];
  void operator()() const { ++*counter; }
};

// Schedule a burst of events at pseudo-random times, then drain.  The
// random times exercise real heap traffic (monotone times degenerate to
// append-only).  Items = events processed.
template <typename Loop>
void schedule_fire_workload(benchmark::State& state) {
  constexpr int kEvents = 4096;
  util::Rng rng(11);
  std::vector<TimeNs> delays(kEvents);
  for (auto& d : delays) {
    d = 1 + static_cast<TimeNs>(rng.uniform() * 1e9);
  }
  std::uint64_t count = 0;
  for (auto _ : state) {
    Loop loop;
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule_in(delays[static_cast<std::size_t>(i)],
                       AckSizedEvent<std::uint64_t>{&count, {}});
    }
    loop.run_until(from_sec(2));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}

// Steady-state throughput: a fixed population of self-rescheduling events
// (the shape of a long simulation — every transmission, ACK, and timer
// reschedules something).  The loop is warmed up first, so the pool and
// heap are at their high-water marks and the current core runs its
// zero-allocation path; the legacy core pays its per-event allocator and
// hash-map traffic.  This is the headline "events per second" number in
// BENCH_*.json.  Items = events processed.
template <typename Loop>
void steady_state_workload(benchmark::State& state,
                           obs::MetricsRegistry* metrics = nullptr) {
  constexpr int kActive = 1024;          // concurrent pending events
  constexpr TimeNs kMaxGap = from_ms(2); // uniform delay in [1, 2 ms)
  Loop loop;
  if constexpr (std::is_same_v<Loop, sim::EventLoop>) {
    if (metrics != nullptr) loop.attach_metrics(metrics);
  } else {
    (void)metrics;  // legacy/PR2 cores predate the registry
  }
  std::uint64_t count = 0;
  struct Tick {
    Loop* loop;
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
  steady_state_workload<sim::EventLoop>(state);
}
BENCHMARK(BM_EventLoopSteadyState);

// Counters-on twin of BM_EventLoopSteadyState: the same workload with a
// MetricsRegistry attached, so every fire bumps loop.events_fired and
// every reschedule a wheel/heap insert counter.  This is the telemetry
// overhead the PR gate holds to within 10% of the off number
// (scripts/bench_report.sh: pair floor 0.90).
void BM_EventLoopSteadyStateCountersOn(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  steady_state_workload<sim::EventLoop>(state, &metrics);
}
BENCHMARK(BM_EventLoopSteadyStateCountersOn);

void BM_EventLoopSteadyStateLegacy(benchmark::State& state) {
  steady_state_workload<bench::LegacyEventLoop>(state);
}
BENCHMARK(BM_EventLoopSteadyStateLegacy);

// The PR 2 wheel core (bench/pr2_event_loop.h): distinct-deadline traffic
// should be parity with it — the batched-drain rewrite must only change
// the equal-time-run case.
void BM_EventLoopSteadyStatePr2(benchmark::State& state) {
  steady_state_workload<bench::Pr2EventLoop>(state);
}
BENCHMARK(BM_EventLoopSteadyStatePr2);

void BM_EventLoopScheduleFire(benchmark::State& state) {
  schedule_fire_workload<sim::EventLoop>(state);
}
BENCHMARK(BM_EventLoopScheduleFire);

void BM_EventLoopScheduleFireLegacy(benchmark::State& state) {
  schedule_fire_workload<bench::LegacyEventLoop>(state);
}
BENCHMARK(BM_EventLoopScheduleFireLegacy);

// Schedule + cancel churn: each new event cancels the previous pending
// one, so all but the last are cancelled before firing (the transport
// RTO / pacing pattern).  Items = scheduled events.
template <typename Loop>
void churn_workload(benchmark::State& state) {
  constexpr int kEvents = 4096;
  util::Rng rng(13);
  std::vector<TimeNs> delays(kEvents);
  for (auto& d : delays) {
    d = 1 + static_cast<TimeNs>(rng.uniform() * 1e9);
  }
  std::uint64_t count = 0;
  for (auto _ : state) {
    Loop loop;
    std::uint64_t pending_id = 0;
    bool have_pending = false;
    for (int i = 0; i < kEvents; ++i) {
      if (have_pending) loop.cancel(pending_id);
      pending_id = loop.schedule_in(delays[static_cast<std::size_t>(i)],
                                    AckSizedEvent<std::uint64_t>{&count, {}});
      have_pending = true;
    }
    loop.run_until(from_sec(2));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}

void BM_EventLoopChurn(benchmark::State& state) {
  churn_workload<sim::EventLoop>(state);
}
BENCHMARK(BM_EventLoopChurn);

void BM_EventLoopChurnLegacy(benchmark::State& state) {
  churn_workload<bench::LegacyEventLoop>(state);
}
BENCHMARK(BM_EventLoopChurnLegacy);

void BM_EventLoopChurnPr2(benchmark::State& state) {
  churn_workload<bench::Pr2EventLoop>(state);
}
BENCHMARK(BM_EventLoopChurnPr2);

// Per-ACK RTO rearming: the timer is re-armed on every "ACK" and only
// fires once at the end.  Items = rearm operations.
template <typename Loop, typename TimerT>
void timer_rearm_workload(benchmark::State& state) {
  constexpr int kRearms = 4096;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    Loop loop;
    TimerT rto(&loop);
    for (int i = 0; i < kRearms; ++i) {
      rto.arm_in(from_ms(200), [&fired]() { ++fired; });
    }
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kRearms);
}

void BM_TimerRearm(benchmark::State& state) {
  timer_rearm_workload<sim::EventLoop, sim::Timer>(state);
}
BENCHMARK(BM_TimerRearm);

void BM_TimerRearmLegacy(benchmark::State& state) {
  timer_rearm_workload<bench::LegacyEventLoop, bench::LegacyTimer>(state);
}
BENCHMARK(BM_TimerRearmLegacy);

void BM_TimerRearmPr2(benchmark::State& state) {
  timer_rearm_workload<bench::Pr2EventLoop, bench::Pr2Timer>(state);
}
BENCHMARK(BM_TimerRearmPr2);

// --- same-time burst: the O(k^2) -> O(k log k) drain fix ----------------

// A phase start wakes every flow at once: k events at one deadline.  The
// PR 2 drain re-scanned the bucket per event (quadratic in the burst
// size); the batched drain unlinks the whole run in one pass.  Items =
// events processed.
template <typename Loop>
void same_time_burst_workload(benchmark::State& state) {
  constexpr int kEvents = 4096;
  std::uint64_t count = 0;
  for (auto _ : state) {
    Loop loop;
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule(from_ms(5), AckSizedEvent<std::uint64_t>{&count, {}});
    }
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}

void BM_EventLoopSameTimeBurst(benchmark::State& state) {
  same_time_burst_workload<sim::EventLoop>(state);
}
BENCHMARK(BM_EventLoopSameTimeBurst);

void BM_EventLoopSameTimeBurstLegacy(benchmark::State& state) {
  same_time_burst_workload<bench::LegacyEventLoop>(state);
}
BENCHMARK(BM_EventLoopSameTimeBurstLegacy);

// Against the PR 2 wheel, whose per-event min-scan drain is O(k^2) on a
// k-event equal-time run — the hot spot the batched drain removes.
void BM_EventLoopSameTimeBurstPr2(benchmark::State& state) {
  same_time_burst_workload<bench::Pr2EventLoop>(state);
}
BENCHMARK(BM_EventLoopSameTimeBurstPr2);

// --- ACK path: outstanding-packet tracking, ring vs map -----------------

// The PR 2 transport's window state, verbatim: a std::map keyed by seq
// with the same find/erase/iterate pattern handle_ack and detect_losses
// ran per ACK.
struct LegacyOutstandingMap {
  struct Rec {
    TimeNs sent_at;
    bool retransmit;
  };
  std::map<std::uint64_t, Rec> m;

  void insert(std::uint64_t seq, TimeNs t) { m[seq] = {t, false}; }
  bool erase_seq(std::uint64_t seq) {
    auto it = m.find(seq);
    if (it == m.end()) return false;
    m.erase(it);
    return true;
  }
  void erase_through(std::uint64_t cum_ack) {
    while (!m.empty() && m.begin()->first <= cum_ack) m.erase(m.begin());
  }
  std::uint64_t scan_below(std::uint64_t bound) {
    std::uint64_t aged = 0;
    for (auto it = m.begin(); it != m.end() && it->first < bound; ++it) {
      aged += static_cast<std::uint64_t>(it->second.sent_at != 0);
    }
    return aged;
  }
  std::size_t size() const { return m.size(); }
};

// The same operations on the seq-indexed ring the transport now uses.
struct RingOutstanding {
  struct Rec {
    TimeNs sent_at;
    bool retransmit;
  };
  sim::SeqRing<Rec> m;

  void insert(std::uint64_t seq, TimeNs t) { m.insert(seq, {t, false}); }
  bool erase_seq(std::uint64_t seq) { return m.erase(seq); }
  void erase_through(std::uint64_t cum_ack) {
    while (!m.empty() && m.lowest() <= cum_ack) m.erase(m.lowest());
  }
  std::uint64_t scan_below(std::uint64_t bound) {
    std::uint64_t aged = 0;
    if (!m.empty()) {
      m.for_each_in(m.lowest(), bound, [&](std::uint64_t, Rec& r) {
        aged += static_cast<std::uint64_t>(r.sent_at != 0);
      });
    }
    return aged;
  }
  std::size_t size() const { return m.size(); }
};

// Steady-state ACK clocking over a W-packet window: every ACK retires the
// lowest outstanding sequence and sends a new one at the frontier; every
// 16th ACK opens a SACK hole (erase mid-window, later re-inserted as a
// retransmission) and runs the detect_losses scan over the hole region.
// Items = ACKs.
template <typename Outstanding>
void ack_path_outstanding_workload(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 256;
  constexpr int kAcks = 8192;
  Outstanding out;
  std::uint64_t frontier = 0;
  for (; frontier < kWindow; ++frontier) {
    out.insert(frontier, static_cast<TimeNs>(frontier + 1));
  }
  std::uint64_t sink = 0;
  std::uint64_t hole = 0;
  bool have_hole = false;
  for (auto _ : state) {
    for (int a = 0; a < kAcks; ++a) {
      const std::uint64_t cum = frontier - kWindow;
      out.erase_seq(cum);
      out.erase_through(cum);  // no-op in the common hole-free case
      if (a % 16 == 7) {
        if (have_hole) {
          out.insert(hole, static_cast<TimeNs>(hole + 1));  // retransmit
          have_hole = false;
        } else {
          hole = cum + kWindow / 2;
          out.erase_seq(hole);  // SACK above a loss
          sink += out.scan_below(hole + 3);
          have_hole = true;
        }
      }
      out.insert(frontier, static_cast<TimeNs>(frontier + 1));
      ++frontier;
    }
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}

void BM_AckPathOutstandingRing(benchmark::State& state) {
  ack_path_outstanding_workload<RingOutstanding>(state);
}
BENCHMARK(BM_AckPathOutstandingRing);

void BM_AckPathOutstandingMapLegacy(benchmark::State& state) {
  ack_path_outstanding_workload<LegacyOutstandingMap>(state);
}
BENCHMARK(BM_AckPathOutstandingMapLegacy);

// --- ACK path: rate sampling, prefix-sum ring vs deque re-summation -----

// The real per-ACK pattern: record the sample, then evaluate Eq. (2) over
// one cwnd of packets (Nimbus and BBR read the rates on every ACK).  The
// reference deque re-sums the whole window each query.  Items = ACKs.
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
  ack_path_rate_sampler_workload<sim::ReferenceRateSampler>(state);
}
BENCHMARK(BM_AckPathRateSamplerDequeLegacy)->Arg(64)->Arg(256)->Arg(1024);

// --- delivery path: recorder, flat vectors vs maps ----------------------

// The PR 2 recorder's per-delivery/per-ACK state, verbatim.
struct LegacyMapRecorder {
  std::set<sim::FlowId> tracked;
  std::map<sim::FlowId, util::ByteCounter> delivered;
  std::map<sim::FlowId, util::TimeSeries> queue_delay;
  std::map<sim::FlowId, util::TimeSeries> rtt;

  void track(sim::FlowId id) { tracked.insert(id); }
  void on_delivery(const sim::Packet& p, TimeNs t) {
    delivered[p.flow_id].add(t, p.size_bytes);
    if (tracked.count(p.flow_id)) {
      queue_delay[p.flow_id].add(t, to_ms(t - p.enqueued_at));
    }
  }
  void on_rtt_sample(sim::FlowId id, TimeNs now, TimeNs r) {
    rtt[id].add(now, to_ms(r));
  }
};

// Interleaved deliveries + RTT samples across 8 flows (one tracked), the
// mix Network feeds the recorder.  Each iteration records one recorder
// lifetime (fresh object, 32k deliveries) so successive iterations measure
// the same state shape.  Items = deliveries.
template <typename Rec>
void recorder_delivery_workload(benchmark::State& state) {
  constexpr int kDeliveries = 32768;
  sim::Packet p;
  p.size_bytes = 1500;
  for (auto _ : state) {
    Rec rec;
    rec.track(1);
    TimeNs t = 0;
    for (int i = 0; i < kDeliveries; ++i) {
      t += 10000;
      p.flow_id = static_cast<sim::FlowId>(1 + (i & 7));
      p.enqueued_at = t - 5000;
      rec.on_delivery(p, t);
      rec.on_rtt_sample(p.flow_id, t, from_ms(50));
    }
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations() * kDeliveries);
}

// Recorder::track_flow has a different name than the bench adapter above.
struct CurrentRecorderAdapter {
  sim::Recorder rec;
  void track(sim::FlowId id) { rec.track_flow(id); }
  void on_delivery(const sim::Packet& p, TimeNs t) { rec.on_delivery(p, t); }
  void on_rtt_sample(sim::FlowId id, TimeNs now, TimeNs r) {
    rec.on_rtt_sample(id, now, r);
  }
};

void BM_DeliveryPathRecorderFlat(benchmark::State& state) {
  recorder_delivery_workload<CurrentRecorderAdapter>(state);
}
BENCHMARK(BM_DeliveryPathRecorderFlat);

void BM_DeliveryPathRecorderMapLegacy(benchmark::State& state) {
  recorder_delivery_workload<LegacyMapRecorder>(state);
}
BENCHMARK(BM_DeliveryPathRecorderMapLegacy);

// --- delivery path: ByteCounter, per-packet appends vs 1 ms buckets -----

// The pre-PR 5 ByteCounter stored one (time, cumulative) pair per
// delivered packet.  The recorder now constructs bucketed counters
// (util::ByteCounter(from_ms(1))): same aligned-query answers, ~8x fewer
// stored samples at paper packet rates, and the common-case add is a
// back-of-vector overwrite.  A default-constructed counter *is* the
// legacy implementation, so the A/B is same-binary.  Items = adds.
template <bool kBucketed>
void byte_counter_add_workload(benchmark::State& state) {
  constexpr int kAdds = 32768;
  constexpr TimeNs kSpacing = 125'000;  // 8000 pkt/s, a 96 Mbit/s flow
  std::int64_t sink = 0;
  for (auto _ : state) {
    util::ByteCounter c =
        kBucketed ? util::ByteCounter(from_ms(1)) : util::ByteCounter();
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

void BM_DeliveryByteCounterBucketed(benchmark::State& state) {
  byte_counter_add_workload<true>(state);
}
BENCHMARK(BM_DeliveryByteCounterBucketed);

void BM_DeliveryByteCounterPerPacketLegacy(benchmark::State& state) {
  byte_counter_add_workload<false>(state);
}
BENCHMARK(BM_DeliveryByteCounterPerPacketLegacy);

// --- ACK path: cc virtual dispatch vs sealed enum-tag dispatch ----------

// ROADMAP hot-spot measurement: is the per-ACK `cc_->on_ack` virtual call
// worth devirtualizing?  Both variants run the same concrete algorithm
// bodies against the same stub context (whose own virtual calls are part
// of the measured body, exactly as in TransportFlow); the only difference
// is how on_ack is reached — through the CcAlgorithm vtable, or through a
// sealed enum tag + qualified (devirtualized, inlineable) call, the shape
// a kind-tag refactor of the transport would produce.  The measured delta
// bounds what such a refactor could save per ACK.  Items = on_ack calls.
struct StubCcContext final : sim::CcContext {
  double cwnd = 64 * 1500.0;
  double pacing = 0.0;
  double rate_window = 0.0;
  util::Rng rng_{42};

  TimeNs now() const override { return from_sec(1); }
  std::uint32_t mss() const override { return 1500; }
  double cwnd_bytes() const override { return cwnd; }
  void set_cwnd_bytes(double b) override { cwnd = b; }
  double pacing_rate_bps() const override { return pacing; }
  void set_pacing_rate_bps(double b) override { pacing = b; }
  TimeNs srtt() const override { return from_ms(50); }
  TimeNs latest_rtt() const override { return from_ms(55); }
  TimeNs min_rtt() const override { return from_ms(50); }
  std::int64_t bytes_in_flight() const override { return 48 * 1500; }
  bool is_app_limited() const override { return false; }
  double send_rate_bps() const override { return 48e6; }
  double recv_rate_bps() const override { return 46e6; }
  bool rates_valid() const override { return true; }
  void set_rate_window_bytes(double b) override { rate_window = b; }
  util::Rng& rng() override { return rng_; }
};

enum class CcTag { kCubic, kReno, kVegas };

struct TaggedCc {
  CcTag tag;
  std::unique_ptr<sim::CcAlgorithm> algo;
};

std::vector<TaggedCc> make_cc_mix() {
  // The fig08 scheme mix shape: several algorithms live per run, so the
  // dispatch site is megamorphic — the regime where virtual calls cost
  // the most (indirect-branch misprediction).
  std::vector<TaggedCc> mix;
  for (int i = 0; i < 2; ++i) {
    mix.push_back({CcTag::kCubic, std::make_unique<cc::Cubic>()});
    mix.push_back({CcTag::kReno, std::make_unique<cc::Reno>()});
    mix.push_back({CcTag::kVegas, std::make_unique<cc::Vegas>()});
  }
  return mix;
}

template <bool kSealed>
void cc_dispatch_workload(benchmark::State& state) {
  constexpr int kAcks = 8192;
  auto mix = make_cc_mix();
  StubCcContext ctx;
  for (auto& m : mix) m.algo->init(ctx);
  sim::AckInfo ack;
  ack.newly_acked_bytes = 1500;
  ack.rtt = from_ms(55);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int a = 0; a < kAcks; ++a) {
      TaggedCc& m = mix[a % mix.size()];
      ack.now = from_sec(1) + static_cast<TimeNs>(a) * 125'000;
      ack.seq = ++seq;
      if constexpr (kSealed) {
        switch (m.tag) {
          case CcTag::kCubic:
            static_cast<cc::Cubic&>(*m.algo).cc::Cubic::on_ack(ctx, ack);
            break;
          case CcTag::kReno:
            static_cast<cc::Reno&>(*m.algo).cc::Reno::on_ack(ctx, ack);
            break;
          case CcTag::kVegas:
            static_cast<cc::Vegas&>(*m.algo).cc::Vegas::on_ack(ctx, ack);
            break;
        }
      } else {
        m.algo->on_ack(ctx, ack);
      }
    }
    benchmark::DoNotOptimize(ctx.cwnd);
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}

void BM_CcDispatchSealed(benchmark::State& state) {
  cc_dispatch_workload<true>(state);
}
BENCHMARK(BM_CcDispatchSealed);

void BM_CcDispatchVirtual(benchmark::State& state) {
  cc_dispatch_workload<false>(state);
}
BENCHMARK(BM_CcDispatchVirtual);

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
  const exp::ShardConfig no_shard;
  {
    exp::ResultCache warmup(dir.string(), exp::ResultCache::Mode::kReadWrite);
    exp::run_sweep(specs, sweep_cell_collect, {/*jobs=*/1, false}, nullptr,
                   nullptr, &warmup, &no_shard);
  }
  exp::ResultCache cache(dir.string(), exp::ResultCache::Mode::kRead);
  for (auto _ : state) {
    const auto cells = exp::run_sweep(
        specs, sweep_cell_collect, {/*jobs=*/1, false}, nullptr, nullptr,
        &cache, &no_shard);
    benchmark::DoNotOptimize(cells);
  }
  if (cache.stats().misses > 0) {
    state.SkipWithError("warm cache missed; measurement invalid");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_SweepCellWarmCache);

void BM_SweepCellColdCompute(benchmark::State& state) {
  const auto specs = sweep_cell_specs();
  exp::ResultCache off("", exp::ResultCache::Mode::kOff);
  const exp::ShardConfig no_shard;
  for (auto _ : state) {
    const auto cells = exp::run_sweep(
        specs, sweep_cell_collect, {/*jobs=*/1, false}, nullptr, nullptr,
        &off, &no_shard);
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_SweepCellColdCompute)->Unit(benchmark::kMillisecond);

// --- queue disc ---------------------------------------------------------

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  sim::DropTailQueue q(1 << 24);
  sim::Packet p;
  p.size_bytes = 1500;
  for (auto _ : state) {
    q.enqueue(p, 0);
    benchmark::DoNotOptimize(q.dequeue(0));
  }
}
BENCHMARK(BM_DropTailEnqueueDequeue);

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
