"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {ensemble,stream,saturate} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh-process probes), throughput, latency, CPU per matrix and
peak memory.  ``--trace 1`` spends half of ``--seconds`` on an untraced
phase and half on a traced one, prints the per-layer self-time table and
reports the per-layer metrics.  Every result is checked.  Metric names
and units come from ``BENCHMARK.json``; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
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

#: Fresh-process set-up probes per run; their median is ``setup_s``.
SETUP_PROBES = 5
#: Median-latency share the traced stage spans must explain.
MIN_SPAN_COVERAGE = 0.9


def _setup_seconds(name: str, seed: int) -> list:
    """Run the set-up probes one after another; each must succeed."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed ({proc.returncode})")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _phase(name: str, seed: int, seconds: float, traced: bool):
    import drive

    if name == "ensemble":
        return drive.ensemble(seed, seconds, traced)
    return drive.served(name, seed, seconds, traced)


def _latency_ms(phase, q: float) -> float:
    """Percentile ``q`` of all the phase's request latencies, in ms."""
    import drive

    return drive.pct(phase.latencies, q, 1e3)


def _schedule_build_ms(ordering: str, d: int, reps: int = 5) -> float:
    """Median cold ``ScheduleCache.get_schedule`` time, sweep 0."""
    from repro import ScheduleCache, get_ordering

    times = []
    for _ in range(reps):
        cache, o = ScheduleCache(), get_ordering(ordering, d)
        t0 = time.perf_counter()
        cache.get_schedule(o, 0)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def end_to_end(name: str, seed: int, seconds: float, report: list):
    probes = _setup_seconds(name, seed)
    phase = _phase(name, seed, seconds, traced=False)
    if not all(p["ok"] for p in probes):
        phase.fail("setup")
    phase.attempted += len(probes)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "throughput_mps": phase.throughput,
        "latency_p50_ms": _latency_ms(phase, 50),
        "latency_p99_ms": _latency_ms(phase, 99),
        "cpu_ms_per_matrix": 1e3 * phase.cpu / max(1, phase.completed),
        "peak_rss_mb": phase.rss_mb,
    }
    report.append(f"setup probes (s): "
                  + " ".join(f"{p['setup_s']:.3f}" for p in probes))
    report.append(f"matrices completed: {phase.completed} in "
                  f"{phase.window:.2f} s; latency samples: "
                  f"{len(phase.latencies)}")
    return phase, values


def per_layer(name: str, seed: int, seconds: float, report: list):
    import spans
    import workloads as wl

    plain = _phase(name, seed, seconds / 2, traced=False)
    phase = _phase(name, seed, seconds / 2, traced=True)
    phase.attempted += plain.attempted
    phase.failures.update(plain.failures)
    values = dict(phase.layer)
    values["orderings.schedule_build_ms"] = _schedule_build_ms(
        *wl.WORKLOADS[name].ordering)
    ref = phase.reference
    values["jacobi.sequential_ms_per_matrix"] = 1e3 * statistics.mean(
        ref["sequential"])
    values["jacobi.lapack_ms_per_matrix"] = 1e3 * statistics.mean(
        ref["lapack"])
    values["engine.sweeps_mean"] = statistics.mean(phase.sweeps)
    values["tracing.overhead_ratio"] = (_latency_ms(phase, 50)
                                        / _latency_ms(plain, 50))
    values["tracing.throughput_ratio"] = phase.throughput / plain.throughput
    cover = phase.spans.coverage()
    covered = statistics.median(c for _, c in cover)
    values["tracing.span_coverage"] = covered / statistics.median(
        t for t, _ in cover)
    if values["tracing.span_coverage"] < MIN_SPAN_COVERAGE:
        phase.fail("span_coverage")
    table = phase.spans.self_times()
    report.append(f"traced phase: {phase.completed} matrices, "
                  f"{len(cover)} requests; self time by layer:")
    report.append(spans.render_self_times(table, len(cover)))
    report.append(f"span coverage of traced latency p50: "
                  f"{values['tracing.span_coverage']:.3f} "
                  f"(at least {MIN_SPAN_COVERAGE} required)")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-spans.json")
    phase.spans.dump(path)
    report.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return phase, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "stream", "saturate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import procstat
    import workloads as wl

    report = [json.dumps(wl.WORKLOADS[args.workload].record(args.seed)),
              json.dumps(procstat.environment())]
    measure = per_layer if args.trace else end_to_end
    phase, values = measure(args.workload, args.seed, args.seconds, report)
    procstat.reap()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    failed = sum(phase.failures.values())
    report.append(f"error_ratio: {failed / phase.attempted:.6f} "
                  f"({failed} of {phase.attempted} operations"
                  + (f": {dict(phase.failures)}" if failed else "") + ")")
    for metric in wanted:
        report.append(f"{metric['name']:<36} "
                      f"{values.get(metric['name'], 0.0):>14.4f} "
                      f"{metric['unit']}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": phase.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
