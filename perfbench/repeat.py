#!/usr/bin/env python3
"""Run one workload K times, one seed each, and summarise every metric.

    python3 perfbench/repeat.py --workload NAME [--runs K] [--first-seed N]
                                [--seconds S] [--trace 0|1] [--json FILE]

Run from the repository root.  For each metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread, (q3 - q1) / median, next to the metric's bound from BENCHMARK.json
and a third of it, the target a steady benchmark stays under.  Runs that
fail or report correct=false are listed and left out of the summary.
Rows named "raw <metric>" give the values before run.py's scaling to the
reference machine speed (query_mix, update_mix), taken from each run's
`info` line; --json keeps every run's `info` line too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's result here")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]
    values, raw, bad, results = {}, {}, [], []
    for k in range(a.runs):
        seed = a.first_seed + k
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               a.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(a.trace)]
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        lines = p.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = None
        if p.returncode != 0 or res is None or not res["correct"]:
            bad.append((seed, p.returncode, lines[-1] if lines else ""))
            print(f"seed {seed}: FAILED", file=sys.stderr)
            continue
        infos = [json.loads(l[5:]) for l in lines if l.startswith("info ")]
        info = infos[-1] if infos else {}
        results.append({"seed": seed, **res, "info": info})
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in (info.get("raw", {}) if info.get("probes_s") else {}).items():
            raw.setdefault(name, []).append(v)
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
            file=sys.stderr)
    print(f"{a.workload}: {len(results)} good runs of {a.runs}, "
          f"{seconds:g} s each")
    print(f"{'metric':34} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'bound/3':>7}")
    rows = list(values.items()) + [("raw " + n, vs) for n, vs in raw.items()]
    for name, vs in rows:
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(name)
        flag = "" if b is None or spread < b / 3 else "  <-- not steady"
        print(f"{name:34} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
              f"{'' if b is None else b:>6} "
              f"{'' if b is None else round(b / 3, 3):>7}{flag}")
    for seed, rc, last in bad:
        print(f"seed {seed} failed (exit {rc}): {last[:300]}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "seconds": seconds,
                       "runs": results, "failed": bad}, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
