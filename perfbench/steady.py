#!/usr/bin/env python3
"""Steadiness check: do two sets of benchmark runs agree within the bounds?

Run from the repository root:

    python3 perfbench/steady.py

Runs `perfbench/run.py --trace 0 --seconds <run_seconds of BENCHMARK.json>`
on every workload ten times per set, in two sets, every run with its own seed
(set 1 uses seeds 1-10, set 2 seeds 11-20). For every end-to-end metric it
prints each set's median and quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, then says whether the sets agree:

  * each set's spread is within the metric's bound;
  * the two medians differ by no more than the bound, in either direction;
  * no check failed in either set.

Exits 1 when any workload disagrees.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set and workload


def run_benchmark(workload, seed, seconds, trace):
    """One run.py invocation; returns its final JSON object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    # sets[s][workload] = list of results; workloads interleave per seed so
    # slow drift of the host spreads over all of them.
    sets = [{w: [] for w in workloads} for _ in range(2)]
    for s in range(2):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                res = run_benchmark(w, seed, spec["run_seconds"], 0)
                sets[s][w].append(res)
                vals = ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {vals} "
                      f"[{res['failed']}/{res['attempted']} failed]", flush=True)

    all_ok = True
    for w in workloads:
        print(f"\n== {w} ==")
        print(f"{'metric':16s} {'set':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        ok = True
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(2):
                vals = [r["metrics"][name]["value"] for r in sets[s][w]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else 0.0
                meds.append(q2)
                flag = ""
                if spread > bound:
                    ok, flag = False, "  SPREAD > BOUND"
                print(f"{name:16s} {s + 1:3d} {q2:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {bound:6.3f}{flag}")
            drift = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            if abs(drift) > bound:
                ok = False
                print(f"{name:16s} set 2 median differs by {drift:+.4f}, bound {bound}")
        for s in range(2):
            att = sum(r["attempted"] for r in sets[s][w])
            fail = sum(r["failed"] for r in sets[s][w])
            ok = ok and fail == 0
            print(f"checks, set {s + 1}: {fail} failed of {att}")
        print(f"{w}: {'sets agree within bounds' if ok else 'SETS DISAGREE'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
