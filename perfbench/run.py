#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, a fixed time budget.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the simulator and the driver from source into .bench_build/ (the
first call compiles, later calls are incremental), then runs repetitions of
the workload, each in a fresh driver process, for as many as fit in S
seconds (at least one). Each repetition checks its own outputs; run.py also
checks that every simulated result repeats exactly across repetitions.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json (medians
over untraced repetitions). With --trace 1 it alternates untraced and traced
repetitions and reports every per-layer metric from the traced ones, plus
trace.overhead_s: median traced wall_s minus median untraced wall_s.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
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
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures and builds perfbench/ (which compiles ../src) quietly."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_driver(workload, seed, traced):
    """One repetition in a fresh process; returns its parsed JSON record."""
    cmd = [DRIVER, f"--workload={workload}", f"--seed={seed}",
           f"--trace={1 if traced else 0}"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {DRIVER_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        raise BenchError(f"driver exited with {r.returncode}: {' '.join(cmd)}")
    for line in lines[:-1]:
        print("  " + line)
    return json.loads(lines[-1])


def run_reps(workload, seed, seconds, trace):
    """Repetitions until the next one would overrun the budget.

    Traced runs alternate untraced and traced repetitions, starting with an
    untraced one, and always make at least one of each."""
    kinds = [False, True] if trace else [False]
    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = kinds[len(reps) % len(kinds)]
        t0 = time.monotonic()
        rec = run_driver(workload, seed, traced)
        longest = max(longest, time.monotonic() - t0)
        reps.append((traced, rec))
        print(f"rep {len(reps)} ({'traced' if traced else 'untraced'}): "
              f"setup {rec['setup_s']:.4f} s, wall {rec['wall_s']:.4f} s, "
              f"makespan {rec['makespan_s']!r} s, VmHWM {rec['peak_rss_mb']:.1f} MB",
              flush=True)
        elapsed = time.monotonic() - start
        if len(reps) >= len(kinds) and elapsed + longest > seconds:
            return reps


def summarize(spec, reps, trace):
    """Checks repeatability and reduces repetitions to the reported metrics."""
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["failed"] for _, r in reps)

    def check(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    # Simulated results are deterministic: every repetition, traced or not,
    # reproduces the first one's makespan and per-layer counts exactly.
    first_count = {}
    for _, r in reps:
        check(r["makespan_s"] == reps[0][1]["makespan_s"], "makespan repeats")
        for k, v in r["counts"].items():
            first_count.setdefault(k, v)
            check(v == first_count[k], f"{k} repeats")

    known = {m["name"] for m in spec["per_layer"]}
    for _, r in reps:
        unknown = (set(r["counts"]) | set(r["host"])) - known
        if unknown:
            raise BenchError(f"driver reports metrics BENCHMARK.json lacks: {sorted(unknown)}")

    untraced = [r for t, r in reps if not t]
    traced = [r for t, r in reps if t]
    med = statistics.median
    values = {}
    if not trace:
        values = {
            "wall_s": med(r["wall_s"] for r in untraced),
            "setup_s": med(r["setup_s"] for r in untraced),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
            "sim_makespan_s": untraced[0]["makespan_s"],
        }
        defs = spec["end_to_end"]
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                values[name] = (med(r["wall_s"] for r in traced) -
                                med(r["wall_s"] for r in untraced))
            elif name in traced[0]["counts"]:
                values[name] = traced[0]["counts"][name]
            elif name in traced[0]["host"]:
                values[name] = med(r["host"][name] for r in traced)
            else:
                values[name] = 0.0  # the layer does not run on this workload
        defs = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in defs}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        build()
        reps = run_reps(args.workload, args.seed, args.seconds, args.trace == 1)
        result = summarize(spec, reps, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"\n{args.workload}, seed {args.seed}, {len(reps)} repetition(s)"
          f"{', traced' if args.trace else ''}:")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:20.6f} {m['unit']}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
