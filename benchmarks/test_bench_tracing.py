"""Benchmark: tracing must be free when off and complete when on.

Two acceptance gates of the tracing subsystem, measured on the
``bursty`` scenario's open-loop replay (the throughput-bound trace, so
per-submission overhead shows up directly):

* **Disabled is free**: components normalise a disabled tracer to
  ``None`` at construction, so the untraced service runs exactly the
  code it ran before tracing existed.  The replayed throughput with
  tracing disabled must stay within
  ``REPRO_BENCH_TRACING_TP_FACTOR`` (default 0.95) of the untraced
  baseline — same trace, same matrices, interleaved runs.
* **Enabled is complete**: with tracing on, every submitted request
  must reach exactly one terminal stage through an ordered lifecycle
  (:func:`repro.analysis.events.validate_lifecycles`), even under the
  bursty backlog.

The floor uses its own environment variable so relaxing it for a
loaded CI runner never weakens the other benchmarks (and vice versa).

Run::

    pytest benchmarks/test_bench_tracing.py -s
"""

from __future__ import annotations

import os

from repro.analysis.events import validate_lifecycles
from repro.analysis.loadgen import (
    build_matrices,
    build_trace,
    replay,
    replay_traced,
    SCENARIOS,
    Setting,
)
from repro.service import NULL_TRACER

TP_FACTOR = float(os.environ.get("REPRO_BENCH_TRACING_TP_FACTOR",
                                 "0.95"))

#: Replay configuration: the throughput-tuned fixed setting on bursty.
SETTING = Setting("bench", max_batch=16, max_delay=0.05)
KW = dict(scenario="bursty")


def _bursty_load():
    (scenario,) = [s for s in SCENARIOS if s.name == "bursty"]
    arrivals = build_trace(scenario, items=96, seed=0)
    return arrivals, build_matrices(arrivals, seed=0)


def test_disabled_tracing_costs_nothing(capsys):
    """Untraced vs tracing-disabled throughput on bursty: interleaved
    paired runs, best-of-3 each, compared against the pinned floor."""
    arrivals, matrices = _bursty_load()
    replay(arrivals, matrices, SETTING, **KW)  # warm-up: caches, pool, pages
    untraced, disabled = [], []
    for _ in range(3):
        untraced.append(replay(arrivals, matrices, SETTING,
                               **KW).throughput)
        disabled.append(replay(arrivals, matrices, SETTING,
                               tracer=NULL_TRACER, **KW).throughput)
    best_untraced, best_disabled = max(untraced), max(disabled)
    ratio = (best_disabled / best_untraced
             if best_untraced > 0 else 1.0)
    with capsys.disabled():
        print(f"\nbursty throughput: untraced {best_untraced:.1f}/s, "
              f"tracing disabled {best_disabled:.1f}/s "
              f"({ratio:.3f}x, floor {TP_FACTOR}x)")
    assert best_disabled >= best_untraced * TP_FACTOR, (
        f"tracing-disabled throughput {best_disabled:.1f}/s fell below "
        f"{TP_FACTOR} * untraced {best_untraced:.1f}/s")


def test_enabled_tracing_captures_complete_lifecycles():
    """Every request of a traced bursty replay reaches exactly one
    terminal stage through an ordered, timestamp-monotone lifecycle."""
    arrivals, matrices = _bursty_load()
    result, timeline = replay_traced(arrivals, matrices, SETTING, **KW)
    problems = validate_lifecycles(timeline)
    assert problems == {}, f"incomplete lifecycles: {problems}"
    requests = timeline.by_request()
    assert len(requests) == len(arrivals)
    assert result.solved == sum(
        1 for evs in requests.values()
        if evs[-1].stage == "resolved")
