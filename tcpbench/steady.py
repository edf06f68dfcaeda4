#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly, on one seed or on
consecutive seeds (--vary-seed), and prints,
for every end-to-end metric, the median, the quartiles and the spread
(distance between the first and third quartile, as a share of the
median) against the metric's bound in BENCHMARK.json.

    python3 tcpbench/steady.py --workload disjunctive-rw --runs 10 --seed 1
    python3 tcpbench/steady.py --workload monadic-read --runs 10 --seed 401 --vary-seed

Run from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--vary-seed", action="store_true",
                    help="run i uses seed + i, as a set of runs on distinct seeds")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = []
    for i in range(a.runs):
        seed = a.seed + i if a.vary_seed else a.seed
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"run {i + 1}: exit {out.returncode}\n{out.stderr[-2000:]}")
        row = json.loads(last)
        rows.append(row)
        print(f"run {i + 1} (seed {seed}): correct={row['correct']} attempted={row['attempted']} "
              f"failed={row['failed']}", flush=True)
        print(last, flush=True)
    seeds = f"seeds {a.seed}-{a.seed + a.runs - 1}" if a.vary_seed else f"seed {a.seed}"
    print(f"\n{a.workload}, {seeds}: {len(rows)} runs, failed share "
          f"{sorted({r['failed'] / r['attempted'] for r in rows})}")
    print(f"{'metric':24s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>7s} {'bound':>6s}")
    for name, b in bounds.items():
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        flag = "ok" if spread <= b / 3 else ("wide" if spread <= b else "OVER")
        print(f"{name:24s} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:7.3f} {b:>6} {flag}")


if __name__ == "__main__":
    main()
