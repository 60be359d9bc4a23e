#!/usr/bin/env python3
"""The benchmark's own test.

    python3 bench_e2e/selftest.py [workload ...]

Run from the repository root (it calls bench_e2e/run.py, which builds).
Checks, per workload:
  * the printed metric names and units are exactly those in BENCHMARK.json;
  * two traced runs with the same seed give identical exact counts (every
    per-layer metric whose unit is "count");
  * each workload exercises the mechanism it was chosen for;
  * per-layer self times plus the uncovered residual add up to 100%;
and that a wrong reference drives success_rate below 1.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_suite", "store_churn")


def run(workload, seed, seconds, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload}: no result (exit {p.returncode})\n"
                 f"{p.stderr[-2000:]}")
    return p.returncode, json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)
    print("ok:", what)


def main():
    workloads = sys.argv[1:] or WORKLOADS
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    exact = sorted(n for n, u in layer_units.items() if u == "count")

    for w in workloads:
        rc1, a = run(w, 7, 2, 1)
        rc2, b = run(w, 7, 2, 1)
        expect(rc1 == 0 and rc2 == 0 and a["correct"] and b["correct"],
               f"{w}: traced runs are correct")
        got = {n: v["unit"] for n, v in a["metrics"].items()}
        expect(got == layer_units, f"{w}: per-layer metrics match "
               "BENCHMARK.json")
        ma = {n: v["value"] for n, v in a["metrics"].items()}
        mb = {n: v["value"] for n, v in b["metrics"].items()}
        diff = [n for n in exact if ma[n] != mb[n]]
        expect(not diff, f"{w}: exact counts repeat with the same seed "
               f"{diff or ''}")
        shares = sum(v for n, v in ma.items()
                     if n.startswith("trace.self_pct.")) + \
            ma["trace.uncovered_pct"]
        expect(math.isclose(shares, 100.0, rel_tol=1e-6),
               f"{w}: layer self times + uncovered = traced request time "
               f"({shares:.6f}%)")
        if w == "paper_suite":
            expect(ma["service.plan_cache_hit_ratio"] == 1,
                   f"{w}: every request after warm-up hits the plan cache")
        if w == "store_churn":
            expect(0 < ma["store.memory_hit_ratio"] < 1,
                   f"{w}: memory hit ratio strictly between 0 and 1")
            for n in ("store.snapshot_hits", "store.stale_reloads",
                      "store.snapshot_writes", "runtime.parallel_partitions"):
                expect(ma[n] > 0, f"{w}: {n} > 0")

        rc, m = run(w, 7, 2, 0)
        expect(rc == 0 and m["correct"] and
               {n: v["unit"] for n, v in m["metrics"].items()} == e2e_units,
               f"{w}: measured run is correct and prints the end-to-end "
               "metrics of BENCHMARK.json")
        expect(m["metrics"]["success_rate"]["value"] == 1,
               f"{w}: success_rate is 1")

    rc, m = run(workloads[0], 7, 2, 0, "--corrupt-reference")
    expect(rc != 0 and not m["correct"] and
           m["metrics"]["success_rate"]["value"] < 1,
           f"{workloads[0]}: a wrong reference drives success_rate below 1")
    print("selftest passed")


if __name__ == "__main__":
    main()
