#!/usr/bin/env bash
# Perf measurement layer: runs the event-loop, ACK-path, delivery-path,
# spectral-detector, sweep-cache, telemetry-overhead, and end-to-end
# microbenchmarks, times the full strict-shape quick bench suite cold
# (NIMBUS_CACHE=off) and warm (result cache pre-populated), and emits a
# BENCH_*.json snapshot so every later change can be compared against
# this one.
#
# Usage: scripts/bench_report.sh [--quick] [--compare BASELINE.json] [output.json]
#
#   --quick     shorter benchmark repetitions (CI smoke; timings noisier)
#   --compare   print a per-bench delta table against a previous BENCH_*.json
#               and gate: exit non-zero if any *gated* in-binary pair in the
#               current run falls under its floor (default 0.90x: the
#               production code >10% slower than the implementation it is
#               paired with in the same binary).  Absolute events/sec
#               drift 20%+ across sessions as VMs and CI runners migrate
#               between hosts, so the cross-file table is printed for
#               trajectory only; the gate uses only same-run,
#               same-process pairs, the one host-independent comparison.
#   output      defaults to BENCH_PR21.json in the repo root; the report's
#               "pr" field is the number in the name (BENCH_PR<N>...json)
#
# The paired "before" numbers come from the same binary: bench_micro runs
# the spectral detector and rate sampler against their executable-spec
# oracles (tests/oracles/), warm sweep cells against cold compute, and the
# steady-state event loop with telemetry counters on against off.  The
# event-loop and ByteCounter benches are recorded as absolute throughput
# only.  All micro numbers are medians of
# 3 repetitions.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OUT=BENCH_PR21.json
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
  --benchmark_filter='EventLoop|Timer|SimulatedSecond|AckPath|Delivery|Spectral|SweepCell' \
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

# Warm pass: populate a fresh result cache, then time the suite
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
import re
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
    0.90 catches the production code being >10% slower than the
    implementation it is paired with (same binary, same run); pairs whose
    whole point is a large structural win (e.g. the warm result cache) set
    a higher floor."""
    after = items_per_sec(current)
    before = items_per_sec(legacy)
    out = {"before_events_per_sec": before, "after_events_per_sec": after,
           "gated": gated}
    if gated and min_speedup != 0.90:
        out["min_speedup"] = min_speedup
    if before and after:
        out["speedup"] = round(after / before, 2)
    return out

def single(current):
    """An unpaired bench: absolute throughput, recorded for trajectory."""
    return {"after_events_per_sec": items_per_sec(current), "gated": False}

cubic = by_name.get("BM_SimulatedSecondCubic")
scenario = by_name.get("BM_SimulatedSecondScenario")

# "pr" is the number in the output name (BENCH_PR<N>.json, or the CI
# artifact BENCH_PR<N>_ci.json); null for any other name.
pr_match = re.match(r"BENCH_PR(\d+)", os.path.basename(os.environ["OUT"]))

report = {
    "pr": int(pr_match.group(1)) if pr_match else None,
    "generated_by": "scripts/bench_report.sh"
                    + (" --quick" if os.environ["QUICK"] == "1" else ""),
    "host": micro.get("context", {}),
    # The production event core on its own.  Its structural wins (no
    # per-event allocation; equal-time runs drained as one sorted batch)
    # are guarded by EventCoreTest in tests/event_loop_test.cc, which is
    # deterministic; these absolute numbers are trajectory only.
    "event_loop_microbench": {
        "steady_state": single("BM_EventLoopSteadyState"),
        "schedule_fire_burst": single("BM_EventLoopScheduleFire"),
        "churn": single("BM_EventLoopChurn"),
        "timer_rearm": single("BM_TimerRearm"),
        "same_time_burst": single("BM_EventLoopSameTimeBurst"),
    },
    # The 1 ms-bucketed delivered-bytes counter.  Its structural win (one
    # stored sample per bucket, not per packet) is guarded by
    # ByteCounterTest.BenchWorkloadStoresOneSamplePerBucket, which is
    # deterministic; this absolute number is trajectory only.
    "delivery_byte_counter": {
        "bucketed_1ms": single("BM_DeliveryByteCounterBucketed"),
    },
    # The per-report spectral path: the production ElasticityDetector
    # (sliding-DFT engine: O(tracked bins) per z sample, O(1) per bin per
    # eta query) vs the from-scratch recompute oracle in
    # tests/oracles/reference_detector.h (ring snapshot + mean removal +
    # Hann + one O(n) Goertzel per scanned bin).  ~50x on the dev
    # container — gated.
    "spectral_microbench": {
        "detector_report_path": pair("BM_SpectralDetectorIncremental",
                                     "BM_SpectralDetectorReference", True),
    },
    # Warm = a 4-cell scored grid served from a pre-populated on-disk
    # result cache (parse + checksum + CellResult decode per cell); cold =
    # full simulation of each cell, same binary, same process.  Gated at
    # >= 5x — the measured ratio on the dev container is ~250x, so the
    # floor only trips if the cache path breaks (e.g. silent misses
    # falling through to simulation).
    "sweep_cache_microbench": {
        "warm_vs_cold_cell": pair("BM_SweepCellWarmCache",
                                  "BM_SweepCellColdCompute", True, 5.0),
    },
    # Telemetry overhead: the steady-state event-loop workload with a
    # MetricsRegistry attached (every fire bumps loop.events_fired, every
    # reschedule a wheel/heap insert counter) vs telemetry off, same
    # binary and process.  The "speedup" is counters-on / off; the gate
    # (floor 0.90) holds counters to < 10% of events/sec.
    "obs_microbench": {
        "counters_on_vs_off": pair("BM_EventLoopSteadyStateCountersOn",
                                   "BM_EventLoopSteadyState", True),
    },
    # The per-ACK rate sampler (prefix-sum ring) vs the deque oracle in
    # tests/oracles/reference_rate_sampler.h, which re-sums one cwnd of
    # samples per query.  Gated.
    "ack_path_microbench": {
        "rate_sampler_w64": pair("BM_AckPathRateSamplerRing/64",
                                 "BM_AckPathRateSamplerDequeLegacy/64", True),
        "rate_sampler_w256": pair("BM_AckPathRateSamplerRing/256",
                                  "BM_AckPathRateSamplerDequeLegacy/256",
                                  True),
        "rate_sampler_w1024": pair("BM_AckPathRateSamplerRing/1024",
                                   "BM_AckPathRateSamplerDequeLegacy/1024",
                                   True),
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
        # bench in quick mode under NIMBUS_SHAPE_STRICT=1).
        "bench_suite_quick_total_wall_seconds":
            float(os.environ["SUITE_SECS"])
            if os.environ.get("SUITE_SECS") else None,
        # Informational: the same suite re-run from a result cache
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
    },
}

out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

def sections(rep):
    """Every bench entry of a report (any top-level group), so pairs that a
    baseline has and this run retired show up as "gone"."""
    for s, group in rep.items():
        if not isinstance(group, dict):
            continue
        for name, p in group.items():
            if isinstance(p, dict) and "after_events_per_sec" in p:
                yield f"{s}.{name}", p

def ratio(p):
    return f"{p['speedup']:6.2f}x" if "speedup" in p else f"{'-':>7}"

print(f"wrote {out}")
for name, p in sections(report):
    if "before_events_per_sec" in p:
        print(f"{name}: {p['before_events_per_sec']:.3g} -> "
              f"{p['after_events_per_sec']:.3g} ({p.get('speedup', '?')}x"
              + (f", gate >= {p.get('min_speedup', 0.90)}x)"
                 if p["gated"] else ")"))
    else:
        print(f"{name}: {p['after_events_per_sec']:.3g} items/s")
e2e = report["end_to_end"]
print(f"bench_suite quick total wall: "
      f"cold {e2e['bench_suite_quick_total_wall_seconds']}s, "
      f"warm {e2e['bench_suite_quick_warm_wall_seconds']}s "
      f"(hit rate {e2e['bench_suite_warm_cache_hit_rate']})")

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
                  f" {'new':>8} {'-':>7} {ratio(c)}")
            continue
        if not c:
            print(f"{name:44} {p['after_events_per_sec']:11.3g} {'-':>11}"
                  f" {'gone':>8}")
            continue
        abs_delta = (c["after_events_per_sec"] / p["after_events_per_sec"]
                     - 1.0) * 100.0
        print(f"{name:44} {p['after_events_per_sec']:11.3g}"
              f" {c['after_events_per_sec']:11.3g} {abs_delta:+7.1f}%"
              f" {ratio(p)} {ratio(c)}")

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
    # the production code against its pair inside one process, so a ratio
    # under the floor is a real regression regardless of which physical
    # host this run landed on.
    failures = []
    for name, p in cur.items():
        floor = p.get("min_speedup", 0.90)
        if p.get("gated") and p.get("speedup") is not None \
                and p["speedup"] < floor:
            failures.append(
                f"{name}: {p['speedup']}x vs its in-binary pair "
                f"(floor {floor}x)")
    if failures:
        print("\nREGRESSIONS:")
        for f_ in failures:
            print(f"  {f_}")
        sys.exit(1)
    print("\ngate: every gated pair above its in-binary speedup floor")
EOF
