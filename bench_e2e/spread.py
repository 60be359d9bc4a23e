#!/usr/bin/env python3
"""Runs one workload once per seed and prints each metric's median and
quartile spread (IQR / median, as statistics.quantiles(values, n=4) gives
the quartiles).

    python3 bench_e2e/spread.py --workload paper_suite --seeds 1-10 [--trace 1]

Run from the repository root. --json appends one JSON object per workload
to the named file. The spreads in bench_e2e/record.json were measured this
way.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if p.returncode != 0 or not result.get("correct"):
            sys.exit(f"seed {seed} failed (exit {p.returncode})\n"
                     f"{p.stderr[-2000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {result['attempted']} requests", flush=True)

    rows = {}
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        rows[name] = {"median": med, "spread": spread,
                      "bound": bounds.get(name), "values": v}
        print(f"{name:34s} median {med:12.6g}  spread {100 * spread:6.2f}%"
              + (f"  bound {100 * bounds[name]:.0f}%"
                 if bounds.get(name) is not None else ""))
    if args.json:
        with open(args.json, "a") as f:
            f.write(json.dumps({"workload": args.workload,
                                "seeds": args.seeds, "metrics": rows}) + "\n")


if __name__ == "__main__":
    main()
