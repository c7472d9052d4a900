#!/usr/bin/env bash
# Perf measurement layer (ISSUE 2, extended in ISSUE 3/4/5/6/7/10): runs
# the event-loop, ACK-path, delivery-path, spectral-detector, sweep-cache,
# telemetry-overhead, and end-to-end microbenchmarks, times the full
# strict-shape quick bench suite cold (NIMBUS_CACHE=off) and warm (result
# cache pre-populated), and emits a BENCH_*.json snapshot so every later
# PR can be compared against this one.
#
# Usage: scripts/bench_report.sh [--quick] [--compare BASELINE.json] [output.json]
#
#   --quick     shorter benchmark repetitions (CI smoke; timings noisier)
#   --compare   print a per-bench delta table against a previous BENCH_*.json
#               and gate: exit non-zero if any *gated* in-binary pair in the
#               current run shows the new implementation >10% slower than
#               the previous implementation compiled into the same binary.
#               (The dev VMs and CI runners migrate between physical hosts
#               and report identical context either way, so absolute
#               events/sec — and even speedups against a fixed legacy —
#               drift 20%+ across sessions; the cross-file table is
#               printed for trajectory, while the gate uses only same-run
#               same-process pairs, the one comparison that is
#               host-independent.  Pairs marked gated are the structural
#               rewrites, whose speedups dwarf measurement noise; parity
#               pairs are reported but not gated.)
#   output      defaults to BENCH_PR10.json in the repo root
#
# The "before" numbers come from the same binary: bench_micro runs every
# workload against a verbatim copy of the previous implementation
# (bench/legacy_event_loop.h = the seed core, bench/pr2_event_loop.h = the
# PR 2 wheel core, plus the PR 2 std::map outstanding tracking, deque rate
# sampler, and map recorder), so every speedup is measured on the same
# host, compiler, and flags.  All micro numbers are medians of 3
# repetitions.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OUT=BENCH_PR10.json
COMPARE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --compare)
      shift
      COMPARE="${1:?--compare needs a baseline json}"
      ;;
    -*) echo "usage: $0 [--quick] [--compare BASELINE.json] [output.json]" >&2; exit 2 ;;
    *) OUT="$1" ;;
  esac
  shift
done

BUILD="${BUILD_DIR:-build}"
MICRO="$BUILD/bench/bench_micro"
FIG08="$BUILD/bench/bench_fig08"
if [ ! -x "$MICRO" ]; then
  echo "error: $MICRO not built (configure with google-benchmark installed)" >&2
  exit 1
fi

MIN_TIME=0.5
if [ "$QUICK" = 1 ]; then MIN_TIME=0.05; fi

MICRO_JSON=$(mktemp)
trap 'rm -f "$MICRO_JSON"' EXIT

echo "== bench_micro (min_time=${MIN_TIME}s, median of 3) =="
"$MICRO" \
  --benchmark_filter='EventLoop|Timer|SimulatedSecond|AckPath|Delivery|CcDispatch|Spectral|SweepCell' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$MICRO_JSON"

# All wall-clock timing passes pin NIMBUS_CACHE=off (and no sharding):
# the report's cold numbers must measure the simulator, not whatever
# result cache the environment happens to carry.  The warm suite pass
# below opts back in explicitly.
echo "== bench_fig08 quick mode (wall clock) =="
FIG08_START=$(date +%s.%N)
NIMBUS_CACHE=off NIMBUS_SHARD= "$FIG08" > /dev/null
FIG08_END=$(date +%s.%N)
FIG08_SECS=$(echo "$FIG08_END $FIG08_START" | awk '{printf "%.2f", $1 - $2}')
echo "bench_fig08 quick: ${FIG08_SECS}s"

VARLINK="$BUILD/bench/bench_varlink"
VARLINK_SECS=""
if [ -x "$VARLINK" ]; then
  echo "== bench_varlink quick mode (wall clock) =="
  VARLINK_START=$(date +%s.%N)
  NIMBUS_CACHE=off NIMBUS_SHARD= "$VARLINK" > /dev/null
  VARLINK_END=$(date +%s.%N)
  VARLINK_SECS=$(echo "$VARLINK_END $VARLINK_START" | awk '{printf "%.2f", $1 - $2}')
  echo "bench_varlink quick: ${VARLINK_SECS}s"
fi

# Full strict-shape quick suite (all figure/table benches, bench_micro
# excluded): the suite total is the "does the whole reproduction still run
# fast" number the ROADMAP tracks, and strict shape checking makes this a
# correctness gate at the same time (a WARNing bench fails the report).
echo "== bench_suite quick mode (strict shape checks, cold, total wall clock) =="
SUITE_START=$(date +%s.%N)
NIMBUS_CACHE=off NIMBUS_SHARD= scripts/bench_suite.sh
SUITE_END=$(date +%s.%N)
SUITE_SECS=$(echo "$SUITE_END $SUITE_START" | awk '{printf "%.2f", $1 - $2}')
echo "bench_suite quick total (cold): ${SUITE_SECS}s"

# Warm pass (PR 7): populate a fresh result cache, then time the suite
# again served from it.  Informational — the warm wall and hit rate land
# in end_to_end but are not gated here (the gated warm-vs-cold pair is the
# in-binary BM_SweepCell pair above; CI additionally diffs cold-vs-warm
# stdout byte-for-byte).
CACHE_DIR=$(mktemp -d)
WARM_LOG=$(mktemp)
trap 'rm -f "$MICRO_JSON" "$WARM_LOG"; rm -rf "$CACHE_DIR"' EXIT
echo "== bench_suite warm pass (populate + reread from result cache) =="
NIMBUS_CACHE=readwrite NIMBUS_CACHE_DIR="$CACHE_DIR" NIMBUS_SHARD= \
  scripts/bench_suite.sh > /dev/null
WARM_START=$(date +%s.%N)
NIMBUS_CACHE=read NIMBUS_CACHE_DIR="$CACHE_DIR" NIMBUS_SHARD= \
  scripts/bench_suite.sh > "$WARM_LOG"
WARM_END=$(date +%s.%N)
WARM_SECS=$(echo "$WARM_END $WARM_START" | awk '{printf "%.2f", $1 - $2}')
# Aggregate hit rate across the suite from the surfaced per-bench
# "cache <bench> nimbus-cache: ... hits=H misses=M ..." rows.
HIT_RATE=$(grep -o 'hits=[0-9]* misses=[0-9]*' "$WARM_LOG" | awk -F'[= ]' \
  '{h += $2; m += $4} END {if (h + m > 0) printf "%.4f", h / (h + m)}')
echo "bench_suite quick total (warm): ${WARM_SECS}s (hit rate ${HIT_RATE:-n/a})"

OUT="$OUT" MICRO_JSON="$MICRO_JSON" FIG08_SECS="$FIG08_SECS" QUICK="$QUICK" \
VARLINK_SECS="$VARLINK_SECS" SUITE_SECS="$SUITE_SECS" COMPARE="$COMPARE" \
WARM_SECS="$WARM_SECS" HIT_RATE="$HIT_RATE" \
python3 - <<'EOF'
import json
import os
import sys

micro = json.load(open(os.environ["MICRO_JSON"]))
# Keyed by run_name, keeping the median aggregate of the 3 repetitions.
by_name = {}
for b in micro["benchmarks"]:
    if b.get("aggregate_name", "median") == "median":
        by_name[b.get("run_name", b["name"])] = b

def items_per_sec(name):
    b = by_name.get(name)
    return b["items_per_second"] if b else None

def pair(current, legacy, gated, min_speedup=0.90):
    """gated pairs fail --compare when speedup < min_speedup.  The default
    0.90 catches the new code being >10% slower than the implementation it
    replaced (same binary, same run); pairs whose whole point is a large
    structural win (e.g. the warm result cache) set a higher floor."""
    after = items_per_sec(current)
    before = items_per_sec(legacy)
    out = {"before_events_per_sec": before, "after_events_per_sec": after,
           "gated": gated}
    if gated and min_speedup != 0.90:
        out["min_speedup"] = min_speedup
    if before and after:
        out["speedup"] = round(after / before, 2)
    return out

cubic = by_name.get("BM_SimulatedSecondCubic")
scenario = by_name.get("BM_SimulatedSecondScenario")

report = {
    "pr": 10,
    "generated_by": "scripts/bench_report.sh"
                    + (" --quick" if os.environ["QUICK"] == "1" else ""),
    "host": micro.get("context", {}),
    # Against the seed core (bench/legacy_event_loop.h), for trajectory
    # continuity with BENCH_PR2.json.
    # Gated pairs are the structural wins whose speedup (>= ~2x) dwarfs
    # the +/-20% session-to-session noise of these VMs; pairs whose true
    # ratio sits near 1x (schedule/cancel churn and timer rearm beat the
    # seed core only modestly, and depend on the host) are reported but
    # not gated, so a noisy run cannot fail CI spuriously.
    "event_loop_microbench": {
        "steady_state": pair("BM_EventLoopSteadyState",
                             "BM_EventLoopSteadyStateLegacy", True),
        "schedule_fire_burst": pair("BM_EventLoopScheduleFire",
                                    "BM_EventLoopScheduleFireLegacy", False),
        "churn": pair("BM_EventLoopChurn", "BM_EventLoopChurnLegacy", False),
        "timer_rearm": pair("BM_TimerRearm", "BM_TimerRearmLegacy", False),
        "same_time_burst": pair("BM_EventLoopSameTimeBurst",
                                "BM_EventLoopSameTimeBurstLegacy", True),
    },
    # New in PR 3: against the PR 2 wheel core compiled into the same
    # binary (bench/pr2_event_loop.h).  The burst pair is the structural
    # win (O(k^2) -> O(k log k) drain) and is gated; the others assert
    # parity on distinct-deadline traffic and are informational (their
    # true value is ~1.0, inside measurement noise).
    "event_core_vs_pr2": {
        "same_time_burst": pair("BM_EventLoopSameTimeBurst",
                                "BM_EventLoopSameTimeBurstPr2", True),
        "steady_state": pair("BM_EventLoopSteadyState",
                             "BM_EventLoopSteadyStatePr2", False),
        "churn": pair("BM_EventLoopChurn", "BM_EventLoopChurnPr2", False),
        "timer_rearm": pair("BM_TimerRearm", "BM_TimerRearmPr2", False),
    },
    # New in PR 3: per-ACK data-path workloads against the PR 2 node-based
    # implementations (std::map outstanding tracking, deque rate sampler
    # with O(cwnd) re-summation, map/set recorder) in the same binary.
    # New in PR 5 (ISSUE 5 satellites).  delivery_byte_counter is the
    # ROADMAP hot-spot rewrite (per-packet (time, cumulative) appends ->
    # 1 ms-bucketed sampling; the default-constructed ByteCounter IS the
    # legacy implementation, same binary) and is gated.  cc_dispatch is a
    # *measurement*, not a rewrite: the per-ACK cc_->on_ack virtual call
    # vs the sealed enum-tag dispatch a devirtualizing refactor would
    # produce, same algorithm bodies, same stub context.  Measured result:
    # sealed is SLOWER than the 3-target virtual site on this toolchain
    # (0.94-0.98x across runs; the vtable's indirect-branch prediction
    # beats the switch), and the dispatch costs ~7.5 ns x ~3M ACKs ~= 23 ms
    # of fig08's ~2 s quick wall (~1%), far under the 5% devirtualization
    # bar — so the ROADMAP item is struck with no refactor.  Not gated
    # (it asserts no implementation change).
    "delivery_byte_counter": {
        "bucketed_1ms": pair("BM_DeliveryByteCounterBucketed",
                             "BM_DeliveryByteCounterPerPacketLegacy", True),
    },
    "cc_dispatch_measurement": {
        "sealed_vs_virtual": pair("BM_CcDispatchSealed",
                                  "BM_CcDispatchVirtual", False),
    },
    # New in PR 6: the per-report spectral path.  The incremental variant
    # is the production ElasticityDetector (sliding-DFT engine: O(tracked
    # bins) per z sample, O(1) per bin per eta query); the reference
    # variant is the seed's from-scratch recompute (ring snapshot + mean
    # removal + Hann + one O(n) Goertzel per scanned bin), kept in-tree as
    # ReferenceElasticityDetector and compiled into the same binary.  The
    # structural win is ~50x on the dev container — gated.
    "spectral_microbench": {
        "detector_report_path": pair("BM_SpectralDetectorIncremental",
                                     "BM_SpectralDetectorReference", True),
    },
    # New in PR 7: the content-addressed sweep cache.  Warm = the same
    # 4-cell scored grid served from a pre-populated on-disk result cache
    # (parse + checksum + CellResult decode per cell); cold = full
    # simulation of each cell, same binary, same process.  ISSUE 7 gates
    # this at >= 5x — the measured ratio on the dev container is ~250x, so
    # the floor only trips if the cache path breaks (e.g. silent misses
    # falling through to simulation).
    "sweep_cache_microbench": {
        "warm_vs_cold_cell": pair("BM_SweepCellWarmCache",
                                  "BM_SweepCellColdCompute", True, 5.0),
    },
    # New in PR 10: telemetry overhead.  Counters-on = the identical
    # steady-state event-loop workload with a MetricsRegistry attached
    # (every fire bumps loop.events_fired, every reschedule a wheel/heap
    # insert counter) vs telemetry-off in the same binary and process.
    # The "speedup" here is counters-on / off: the gate (floor 0.90)
    # enforces the ISSUE 10 bound that counters cost < 10% events/sec.
    "obs_microbench": {
        "counters_on_vs_off": pair("BM_EventLoopSteadyStateCountersOn",
                                   "BM_EventLoopSteadyState", True),
    },
    "ack_path_microbench": {
        "outstanding_ring": pair("BM_AckPathOutstandingRing",
                                 "BM_AckPathOutstandingMapLegacy", True),
        "rate_sampler_w64": pair("BM_AckPathRateSamplerRing/64",
                                 "BM_AckPathRateSamplerDequeLegacy/64", True),
        "rate_sampler_w256": pair("BM_AckPathRateSamplerRing/256",
                                  "BM_AckPathRateSamplerDequeLegacy/256",
                                  True),
        "rate_sampler_w1024": pair("BM_AckPathRateSamplerRing/1024",
                                   "BM_AckPathRateSamplerDequeLegacy/1024",
                                   True),
        "recorder_delivery": pair("BM_DeliveryPathRecorderFlat",
                                  "BM_DeliveryPathRecorderMapLegacy", False),
    },
    "end_to_end": {
        "simulated_second_cubic_sim_sec_per_wall_sec":
            cubic["items_per_second"] if cubic else None,
        "scenario_sim_sec_per_wall_sec":
            scenario["items_per_second"] if scenario else None,
        "scenario_events_per_sim_sec":
            scenario.get("events_per_sim_sec") if scenario else None,
        "bench_fig08_quick_wall_seconds": float(os.environ["FIG08_SECS"]),
        "bench_varlink_quick_wall_seconds":
            float(os.environ["VARLINK_SECS"])
            if os.environ.get("VARLINK_SECS") else None,
        # Total wall clock of scripts/bench_suite.sh (every figure/table
        # bench in quick mode under NIMBUS_SHAPE_STRICT=1).  New in PR 6.
        "bench_suite_quick_total_wall_seconds":
            float(os.environ["SUITE_SECS"])
            if os.environ.get("SUITE_SECS") else None,
        # PR 7, informational: the same suite re-run from a result cache
        # populated moments earlier (NIMBUS_CACHE=read), and the aggregate
        # cache hit rate over the scenario benches during that run.
        # The non-sweep part of every bench (building specs, printing,
        # CDF math) bounds the warm wall from below.
        "bench_suite_quick_warm_wall_seconds":
            float(os.environ["WARM_SECS"])
            if os.environ.get("WARM_SECS") else None,
        "bench_suite_warm_cache_hit_rate":
            float(os.environ["HIT_RATE"])
            if os.environ.get("HIT_RATE") else None,
        # Seed commit (80dcab9) measured on the PR-2 dev container for
        # reference; host-specific, unlike the in-binary legacy numbers.
        "seed_baseline_dev_host": {
            "bench_fig08_quick_wall_seconds": 7.21,
            "simulated_second_cubic_sim_sec_per_wall_sec": 11.9,
        },
        # PR 2 HEAD measured on the PR-3 dev container (same session as
        # this report's numbers): quick-mode wall seconds before/after the
        # ACK-path rewrite, bit-identical output.
        "pr2_baseline_dev_host": {
            "bench_fig08_quick_wall_seconds": 4.73,
            "bench_fig09_quick_wall_seconds": 2.88,
            "bench_table1_quick_wall_seconds": 5.72,
        },
    },
}

out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

def sections(rep):
    for s in ("event_loop_microbench", "event_core_vs_pr2",
              "ack_path_microbench", "delivery_byte_counter",
              "cc_dispatch_measurement", "spectral_microbench",
              "sweep_cache_microbench", "obs_microbench"):
        for name, p in rep.get(s, {}).items():
            if isinstance(p, dict) and "after_events_per_sec" in p:
                yield f"{s}.{name}", p

ss = report["event_loop_microbench"]["steady_state"]
ack = report["ack_path_microbench"]["outstanding_ring"]
burst = report["event_core_vs_pr2"]["same_time_burst"]
bc = report["delivery_byte_counter"]["bucketed_1ms"]
cc = report["cc_dispatch_measurement"]["sealed_vs_virtual"]
spec = report["spectral_microbench"]["detector_report_path"]
sweep = report["sweep_cache_microbench"]["warm_vs_cold_cell"]
obs = report["obs_microbench"]["counters_on_vs_off"]
print(f"wrote {out}")
print(f"telemetry overhead, counters-on vs off events/sec: "
      f"{obs['before_events_per_sec']:.3g} -> "
      f"{obs['after_events_per_sec']:.3g} ({obs.get('speedup', '?')}x, "
      f"gate >= 0.90x)")
print(f"sweep cells/sec, warm cache vs cold compute: "
      f"{sweep['before_events_per_sec']:.3g} -> "
      f"{sweep['after_events_per_sec']:.3g} ({sweep.get('speedup', '?')}x, "
      f"gate >= {sweep.get('min_speedup')}x)")
print(f"spectral detector reports/sec, sliding DFT vs recompute: "
      f"{spec['before_events_per_sec']:.3g} -> "
      f"{spec['after_events_per_sec']:.3g} ({spec.get('speedup', '?')}x)")
e2e = report["end_to_end"]
print(f"bench_suite quick total wall: "
      f"cold {e2e['bench_suite_quick_total_wall_seconds']}s, "
      f"warm {e2e['bench_suite_quick_warm_wall_seconds']}s "
      f"(hit rate {e2e['bench_suite_warm_cache_hit_rate']})")
print(f"ByteCounter adds/sec, 1ms buckets vs per-packet: "
      f"{bc['before_events_per_sec']:.3g} -> "
      f"{bc['after_events_per_sec']:.3g} ({bc.get('speedup', '?')}x)")
print(f"cc dispatch measurement, sealed vs virtual on_ack: "
      f"{cc.get('speedup', '?')}x (>1 would favor devirtualizing)")
print(f"steady-state events/sec vs seed core: "
      f"{ss['before_events_per_sec']:.3g} -> "
      f"{ss['after_events_per_sec']:.3g} ({ss.get('speedup', '?')}x)")
print(f"ACK-path outstanding ops/sec vs PR 2 map: "
      f"{ack['before_events_per_sec']:.3g} -> "
      f"{ack['after_events_per_sec']:.3g} ({ack.get('speedup', '?')}x)")
print(f"same-time burst vs PR 2 drain: "
      f"{burst['before_events_per_sec']:.3g} -> "
      f"{burst['after_events_per_sec']:.3g} ({burst.get('speedup', '?')}x)")

# ---- --compare: cross-file delta table + same-run regression gate -------

baseline_path = os.environ["COMPARE"]
if baseline_path:
    base = json.load(open(baseline_path))
    prev = dict(sections(base))
    cur = dict(sections(report))

    print(f"\n== delta vs {baseline_path} (pr {base.get('pr', '?')}; "
          f"cross-session numbers drift with VM placement — informational) ==")
    print(f"{'bench':44} {'prev ev/s':>11} {'now ev/s':>11} {'abs':>8}"
          f" {'prev x':>7} {'now x':>7}")
    for name in sorted(set(cur) | set(prev)):
        c, p = cur.get(name), prev.get(name)
        if not p:
            print(f"{name:44} {'-':>11} {c['after_events_per_sec']:11.3g}"
                  f" {'new':>8} {'-':>7} {c.get('speedup', 0):6.2f}x")
            continue
        if not c:
            print(f"{name:44} {p['after_events_per_sec']:11.3g} {'-':>11}"
                  f" {'gone':>8}")
            continue
        abs_delta = (c["after_events_per_sec"] / p["after_events_per_sec"]
                     - 1.0) * 100.0
        print(f"{name:44} {p['after_events_per_sec']:11.3g}"
              f" {c['after_events_per_sec']:11.3g} {abs_delta:+7.1f}%"
              f" {p.get('speedup', 0):6.2f}x {c.get('speedup', 0):6.2f}x")

    e_prev = base.get("end_to_end", {})
    w_cur = report["end_to_end"].get("bench_fig08_quick_wall_seconds")
    w_prev = e_prev.get("bench_fig08_quick_wall_seconds")
    if w_cur and w_prev:
        print(f"{'fig08 quick wall (s)':44} {w_prev:11.2f} {w_cur:11.2f}"
              f" {(w_cur / w_prev - 1.0) * 100.0:+7.1f}%")
    s_cur = report["end_to_end"].get("bench_suite_quick_total_wall_seconds")
    s_prev = e_prev.get("bench_suite_quick_total_wall_seconds")
    if s_cur and s_prev:
        print(f"{'bench_suite quick total wall (s)':44} {s_prev:11.2f}"
              f" {s_cur:11.2f} {(s_cur / s_prev - 1.0) * 100.0:+7.1f}%")

    # The gate: same-run, same-binary pairs only.  A gated pair measures
    # the current implementation against the one it replaced inside one
    # process, so speedup < 0.9 means a real >10% events/sec regression
    # regardless of which physical host this run landed on.
    failures = []
    for name, p in cur.items():
        floor = p.get("min_speedup", 0.90)
        if p.get("gated") and p.get("speedup") is not None \
                and p["speedup"] < floor:
            failures.append(
                f"{name}: {p['speedup']}x vs the in-binary previous "
                f"implementation (floor {floor}x)")
    if failures:
        print("\nREGRESSIONS:")
        for f_ in failures:
            print(f"  {f_}")
        sys.exit(1)
    print("\ngate: every gated pair above its in-binary speedup floor")
EOF
