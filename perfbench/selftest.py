#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, through perfbench/run.py with short runs, that
  * every workload (BENCHMARK.json's, and loss_storm) prints every
    end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
    named in BENCHMARK.json, each with its unit, in a last stdout line of
    the agreed JSON shape, and exits 0;
  * a failed output check (--inject check) and a corrupted digest
    (--inject digest) are reported as failed: "correct" is false,
    "failed" is at least 1, and the exit code is nonzero.
Exits nonzero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("selftest: %s printed nothing" % " ".join(cmd))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("selftest: bad result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise SystemExit("selftest: bad attempted %r" % result["attempted"])
    return p.returncode, result, lines


def expect_metrics(result, wanted, what):
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        raise SystemExit("selftest: %s metrics differ: %s" % (what, sorted(got)))
    for m in wanted:
        v = got[m["name"]]
        if v.get("unit") != m["unit"] or not isinstance(v.get("value"),
                                                        (int, float)):
            raise SystemExit("selftest: %s metric %s is %r" % (what, m["name"], v))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # loss_storm is runnable by hand but not in BENCHMARK.json (NOTES.md).
    names = [w["name"] for w in bench["workloads"]] + ["loss_storm"]
    for name in names:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, lines = run(name, trace)
            what = "%s --trace %d" % (name, trace)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                raise SystemExit("selftest: %s failed (exit %d)" % (what, code))
            expect_metrics(result, wanted, what)
            if not any(l.startswith("digest ") for l in lines):
                raise SystemExit("selftest: %s printed no digests" % what)
            print("selftest: %s ok" % what)
    name = bench["workloads"][-1]["name"]
    for fault in ("check", "digest"):
        code, result, _ = run(name, 0, "--inject", fault)
        if code == 0 or result["correct"] or result["failed"] < 1:
            raise SystemExit("selftest: injected %s fault was not reported "
                             "(exit %d, %r)" % (fault, code, result))
        print("selftest: injected %s fault reported as failed" % fault)
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
