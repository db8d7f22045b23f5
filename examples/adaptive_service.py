#!/usr/bin/env python
"""Adaptive micro-batching: watch the service tune itself under load.

A fixed ``max_batch``/``max_delay`` pair is only right for one traffic
shape — trickling arrivals waste the whole deadline waiting for batch
companions that never come, bursts overflow a small batch ceiling.
With ``JacobiService(adaptive=True)`` the service watches its own flush
causes, queue depths and solve latencies and retunes both knobs per
traffic key, within caller-set bounds.

This example replays one seeded load scenario twice — once with the
limits frozen at their starting values, once adaptive — prints the
p50/p99/throughput comparison, and dumps the adaptive run's tuning
trace (every applied retune, from ``stats().tuning``).

Run::

    python examples/adaptive_service.py [--scenario trickle] [--items 40]
        [--seed 0]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.analysis.loadgen import (
    ADAPTIVE,
    SCENARIOS,
    build_matrices,
    build_trace,
    render_load_bench,
    replay,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="trickle",
                        choices=[s.name for s in SCENARIOS])
    parser.add_argument("--items", type=int, default=None,
                        help="submissions to replay (default: the "
                             "scenario's own size)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scenario = next(s for s in SCENARIOS if s.name == args.scenario)
    print(f"scenario '{scenario.name}': {scenario.description}")
    arrivals = build_trace(scenario, items=args.items, seed=args.seed)
    matrices = build_matrices(arrivals, seed=args.seed)
    print(f"replaying {len(arrivals)} arrivals over "
          f"{arrivals[-1].at:.2f}s, twice (fixed, then adaptive)\n")

    fixed = replay(arrivals, matrices,
                   replace(ADAPTIVE, label="fixed (same start)",
                           adaptive=False),
                   scenario=scenario.name)
    adaptive = replay(arrivals, matrices, ADAPTIVE, scenario=scenario.name)
    print(render_load_bench([fixed, adaptive]))

    print(f"\nadaptive tuning trace ({adaptive.retunes} retunes):")
    for ev in adaptive.tuning:
        print(f"  t={ev['t']:7.3f}s  {ev['key']}: "
              f"batch {ev['batch'][0]} -> {ev['batch'][1]}, "
              f"delay {ev['delay'][0] * 1e3:.2f} -> "
              f"{ev['delay'][1] * 1e3:.2f}ms   ({ev['reason']})")
    if not adaptive.tuning:
        print("  (none — the starting limits already fit this traffic)")
    print("final limits per key:")
    for key, (batch, delay) in adaptive.final_limits.items():
        print(f"  {key}: max_batch={batch}, max_delay={delay * 1e3:.2f}ms")


if __name__ == "__main__":
    main()
