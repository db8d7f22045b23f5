"""Steadiness mode: run workloads repeatedly and report how much each
metric moves between runs.

Usage (from the repository root)::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] \\
        [--seconds S] [--out FILE]

Run ``k`` is one ``run.py --trace 0`` process with seed ``k`` (seeds 1 to
``--runs``).  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median``, the bound from ``BENCHMARK.json`` and whether
the spread is under a third of it — the margin the bounds were set with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--out", help="also write every run's result "
                        "as JSON to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    results = {}
    for workload in args.workload:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}", flush=True)
        results[workload] = runs
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s")
        print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            bound = bounds[metric]
            verdict = f" {bound:>6.2f} " + ("ok" if s["spread"] < bound / 3
                                            else "WIDE")
            print(f"{metric:<34} {s['median']:>12.4f} {s['q1']:>12.4f} "
                  f"{s['q3']:>12.4f} {s['spread']:>8.3f}{verdict}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
