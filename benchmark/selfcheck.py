#!/usr/bin/env python3
"""Acceptance run of the benchmark against its own bounds.

Runs every workload of BENCHMARK.json in two sets on the same build, each
set once per seed (default seeds 7, 11 and 13; `--runs 10` gives the
ten-seed procedure the bounds were calibrated with), and prints per
workload and end-to-end metric: both medians, their relative difference,
the spread of each set (distance between the first and third quartile as a
share of the median, `statistics.quantiles(values, n=4)`) and the bound.

Exits non-zero when
  * a run fails, reports `correct: false` or `failed > 0` (so a seed other
    than 7 that cannot complete with failed_ratio 0 fails the check),
  * a metric's second median is worse than its first by more than the bound,
  * a spread (except `setup_s`'s) exceeds the bound.
A spread above a third of the bound is flagged `!` but does not fail.
Spreads need at least five runs per set (quartiles of fewer are
extrapolations) and are otherwise shown as n/a.

usage: python3 benchmark/selfcheck.py [--runs N] [--workloads a,b] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def run_once(manifest, workload, seed, seconds, trace=0):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"] and result["failed"] == 0
    if not ok:
        sys.stderr.write(f"FAILED: {' '.join(cmd)} (exit {proc.returncode})\n")
        sys.stderr.write("\n".join(lines[-12:]) + "\n" + proc.stderr[-2000:] + "\n")
    return ok, result, wall


def spread(values):
    if len(values) < 5:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=3, help="runs (seeds) per workload per set")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=None, help="override run_seconds")
    args = ap.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or manifest["run_seconds"]
    seeds = SEEDS[: args.runs]
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    violations = 0
    raw = {}
    total_wall = 0.0
    for workload in workloads:
        sets = []
        for set_no in (1, 2):
            values = {m["name"]: [] for m in manifest["end_to_end"]}
            for seed in seeds:
                ok, result, wall = run_once(manifest, workload, seed, seconds)
                total_wall += wall
                print(f"  [{workload} set {set_no} seed {seed}: {wall:.1f} s{'' if ok else ' FAILED'}]",
                      flush=True)
                if not ok:
                    violations += 1
                    continue
                for name, series in values.items():
                    series.append(result["metrics"][name]["value"])
            sets.append(values)
        raw[workload] = sets

        print(f"\n== {workload}: {len(seeds)} seed(s) per set, seeds {seeds}")
        print(f"  {'metric':<18}{'unit':<10}{'median 1':>12}{'median 2':>12}{'worse by':>10}"
              f"{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
        for m in manifest["end_to_end"]:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            if not a or not b:
                continue
            m1, m2 = statistics.median(a), statistics.median(b)
            worse = worsening(m1, m2, m["better"])
            flags = ""
            if worse > m["bound"]:
                flags += " MEDIAN-DRIFT"
                violations += 1
            cells = []
            for s in (spread(a), spread(b)):
                if s is None:
                    cells.append(f"{'n/a':>10}")
                    continue
                mark = ""
                if m["name"] != "setup_s" and s > m["bound"]:
                    mark, flags = "X", flags + " SPREAD"
                    violations += 1
                elif m["name"] != "setup_s" and s > m["bound"] / 3:
                    mark = "!"
                cells.append(f"{s * 100:>8.2f}%{mark or ' '}")
            print(f"  {m['name']:<18}{m['unit']:<10}{m1:>12.4f}{m2:>12.4f}{worse * 100:>9.2f}%"
                  f"{cells[0]}{cells[1]}{m['bound'] * 100:>7.0f}%{flags}")
        print(flush=True)

    out = ROOT / "benchmark" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps({"seeds": seeds, "seconds": seconds, "values": raw}))
    print(f"{len(workloads)} workload(s), {total_wall:.0f} s of runs, {violations} violation(s); "
          f"raw values in {out / 'selfcheck.json'}")
    sys.exit(1 if violations else 0)


if __name__ == "__main__":
    main()
