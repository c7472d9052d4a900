#!/usr/bin/env bash
# Runs the full figure/table bench suite in quick mode with
# NIMBUS_SHAPE_STRICT=1: a bench whose (non-known-warn) SHAPE-CHECK rows
# WARN exits nonzero, so CI catches qualitative regressions in any figure
# instead of scrolling past a WARN in the log.  bench_micro (the
# google-benchmark perf harness) is excluded — scripts/bench_report.sh owns
# it.
#
# Usage: scripts/bench_suite.sh [--shard k/n] [bench...]
#        (default: all build/bench/*)
#
#   --shard k/n   export NIMBUS_SHARD=k/n: each bench computes only its
#                 shard's cells; out-of-shard cells are served from the
#                 result cache when present and otherwise SKIP their shape
#                 checks (see exp/result_cache.h).  Pair with
#                 NIMBUS_CACHE=readwrite + a shared NIMBUS_CACHE_DIR to
#                 fan the suite out across processes/CI jobs.
#
# Environment:
#   NIMBUS_CACHE / NIMBUS_CACHE_DIR   forwarded to the benches (result
#                 cache; off by default).  Per-bench cache stats lines
#                 (stderr) are surfaced as "cache <bench> ..." rows.
#   NIMBUS_BENCH_TIMEOUT   per-bench wall-clock limit in seconds (default
#                 600).  A bench that exceeds it is killed, prints a
#                 "TIMEOUT <bench>" row, and fails the suite — a hung
#                 bench can no longer stall CI indefinitely.  Set 0 to
#                 disable (e.g. full-length local runs under a debugger).
#   NIMBUS_OBS_DIR   when set (with NIMBUS_OBS=counters|trace), each bench
#                 writes its artifacts to its own $NIMBUS_OBS_DIR/<bench>/,
#                 created here.  Sweep manifests are numbered per process
#                 (manifest-0.jsonl, ...), so benches sharing one directory
#                 would overwrite each other's.
#   NIMBUS_SUITE_OUTDIR   when set, each bench's *stdout* is also written
#                 to $NIMBUS_SUITE_OUTDIR/<bench>.out — stderr (cache
#                 stats, strict-warn diagnostics) is kept out, so CI can
#                 diff cold-vs-warm runs byte for byte.
set -uo pipefail
cd "$(dirname "$0")/.."

SHARD=""
while [ $# -gt 0 ]; do
  case "$1" in
    --shard)
      shift
      SHARD="${1:?--shard needs k/n}"
      ;;
    -*) echo "usage: $0 [--shard k/n] [bench...]" >&2; exit 2 ;;
    *) break ;;
  esac
  shift
done

BUILD="${BUILD_DIR:-build}"
if [ $# -gt 0 ]; then
  BENCHES=("$@")
else
  BENCHES=()
  for b in "$BUILD"/bench/bench_*; do
    [ -x "$b" ] || continue
    case "$(basename "$b")" in bench_micro) continue ;; esac
    BENCHES+=("$b")
  done
fi

if [ "${#BENCHES[@]}" = 0 ]; then
  echo "error: no benches found under $BUILD/bench (build first)" >&2
  exit 1
fi

if [ -n "${NIMBUS_SUITE_OUTDIR:-}" ]; then
  mkdir -p "$NIMBUS_SUITE_OUTDIR"
fi

STDOUT_TMP=$(mktemp)
STDERR_TMP=$(mktemp)
trap 'rm -f "$STDOUT_TMP" "$STDERR_TMP"' EXIT

TIMEOUT_SEC="${NIMBUS_BENCH_TIMEOUT:-600}"

FAILED=()
for b in "${BENCHES[@]}"; do
  name=$(basename "$b")
  obs_dir=""
  if [ -n "${NIMBUS_OBS_DIR:-}" ]; then
    obs_dir="$NIMBUS_OBS_DIR/$name"
    mkdir -p "$obs_dir"
  fi
  start=$(date +%s)
  if [ "$TIMEOUT_SEC" != 0 ]; then
    NIMBUS_SHAPE_STRICT=1 NIMBUS_SHARD="${SHARD}" NIMBUS_OBS_DIR="$obs_dir" \
      timeout -k 10 "$TIMEOUT_SEC" "$b" \
      >"$STDOUT_TMP" 2>"$STDERR_TMP"
  else
    NIMBUS_SHAPE_STRICT=1 NIMBUS_SHARD="${SHARD}" NIMBUS_OBS_DIR="$obs_dir" \
      "$b" >"$STDOUT_TMP" 2>"$STDERR_TMP"
  fi
  rc=$?
  secs=$(( $(date +%s) - start ))
  # timeout(1) reports 124 (TERM) or 137 (KILL'd after --signal=KILL).
  if [ "$TIMEOUT_SEC" != 0 ] && { [ $rc -eq 124 ] || [ $rc -eq 137 ]; }; then
    echo "TIMEOUT $name (killed after ${TIMEOUT_SEC}s)"
    FAILED+=("$name")
    continue
  fi
  checks=$(grep -c "SHAPE-CHECK" "$STDOUT_TMP" || true)
  warns=$(grep -c "SHAPE-CHECK,WARN" "$STDOUT_TMP" || true)
  skips=$(grep -c "SHAPE-CHECK,SKIP" "$STDOUT_TMP" || true)
  if [ -n "${NIMBUS_SUITE_OUTDIR:-}" ]; then
    cp "$STDOUT_TMP" "$NIMBUS_SUITE_OUTDIR/$name.out"
  fi
  skipnote=""
  if [ "$skips" != 0 ]; then skipnote=", $skips SKIP"; fi
  if [ $rc -ne 0 ]; then
    echo "FAIL  $name (rc=$rc, ${secs}s, $warns/$checks WARN$skipnote)"
    grep "SHAPE-CHECK,WARN" "$STDOUT_TMP" | sed 's/^/      /'
    if [ "$warns" = 0 ]; then
      # Crashed rather than WARNed (e.g. a NIMBUS_CHECK abort): surface
      # the tail so CI logs carry the diagnostic, not just the exit code.
      tail -n 10 "$STDERR_TMP" | sed 's/^/      | /'
    fi
    FAILED+=("$name")
  else
    echo "ok    $name (${secs}s, $warns/$checks WARN$skipnote)"
  fi
  grep "^nimbus-cache:" "$STDERR_TMP" | sed "s/^/cache $name /"
done

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "bench_suite: ${#FAILED[@]} bench(es) failed strict shape checks:" \
       "${FAILED[*]}"
  exit 1
fi
echo "bench_suite: all ${#BENCHES[@]} benches passed strict shape checks"
