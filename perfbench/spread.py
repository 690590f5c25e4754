#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload read --seeds 1-5 [--seconds 10]

Runs perfbench/run.py once per seed and prints, per metric, the median
and the interquartile range as a share of the median, computed with
statistics.quantiles(values, n=4) — the spread the bounds in
BENCHMARK.json are stated in. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(a.seeds):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
                              "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace],
                             capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}: {out.stderr.strip()[-400:]}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        med = statistics.median(v)
        line = f"{name:32s} n={len(v):2d} median={med:.6g}"
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            line += f" iqr/median={share:.4f}"
            if bound:
                line += f" bound={bound} ({'ok' if share < bound / 3 else 'WIDE'})"
        print(line)
        print("    values: " + " ".join(f"{x:.5g}" for x in v))


if __name__ == "__main__":
    main()
