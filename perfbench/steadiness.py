#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload once per seed 1..10
and reports, for every end-to-end metric, the median and the spread (distance
between the first and third quartile as a share of the median) against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--out FILE] [--compare FILE] [WORKLOAD...]

--out saves the per-seed values; --compare FILE also reports how far each
median moved from the one saved in FILE, as a share of that median in the
metric's worse direction. Exits 1 if a move exceeds its bound, or a spread
does for any metric but setup_s.

setup_s is held only by the move, as in the benchmark's acceptance rule. It
is the median of a run's set-ups, not the best pass that the other times
use, so the host's slow spells reach it fully. Its spread is printed all the
same.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    values = {}
    ok = True
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in contract["end_to_end"]}
        for seed in SEEDS:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if run.returncode:
                sys.stderr.write(run.stderr)
                sys.exit("%s seed %d failed" % (workload, seed))
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print("%s seed %d: incorrect output" % (workload, seed))
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
        for m in contract["end_to_end"]:
            series = values[workload][m["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            line = "%-15s %-13s median %-12.6g spread %.3f (bound %.2f)" % (
                workload, m["name"], median, spread, m["bound"])
            if spread > m["bound"]:
                line += "  SPREAD OVER BOUND"
                ok = ok and m["name"] == "setup_s"
            old = previous.get(workload, {}).get(m["name"])
            if old:
                before = statistics.median(old)
                moved = (median - before) / before
                worse = moved if m["better"] == "lower" else -moved
                line += "  moved %+.3f" % moved
                if worse > m["bound"]:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
