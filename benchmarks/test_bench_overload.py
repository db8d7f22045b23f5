"""Benchmark: bounded admission vs the unbounded baseline under overload.

Replays the seeded open-loop ``overload`` scenario of
:mod:`repro.analysis.loadgen` — bursts of heavy matrices arriving well
above one-core solve capacity — against its :data:`OVERLOAD_SETTINGS`
grid, whose first row is an uncontended stretched twin of the same
bursts, asserting the admission layer's whole value proposition:

* **unbounded** — the baseline accepts everything, so its backlog grows
  monotonically for the length of the trace and its steady-state p99
  blows past the uncontended p99 by at least
  ``REPRO_BENCH_OVERLOAD_BLOWUP_FACTOR`` (default 2.5).
* **bounded reject** — a one-batch ``max_queue`` keeps the backlog
  capped at the bound, so the p99 of the *admitted* items stays within
  ``REPRO_BENCH_OVERLOAD_P99_FACTOR`` (default 2.0) of the uncontended
  p99 — flat latency, bought with explicit ``QueueFull`` rejections.
* **bounded shed** — the deadline policy must actually shed (and the
  three outcomes must account for every submission), and its solved-p99
  stays within the same factor of uncontended-p99 *plus the deadline*
  (a shed-policy service admits items that already waited up to their
  deadline).

The floors are generous against locally measured margins (unbounded
blows up ~5x here; bounded reject lands ~1x) and use their own
environment variables so a loaded CI runner can relax them without
weakening the other benchmarks.  Replays are single-process
(``workers=0``): admission, not multiprocessing, is under test.

Run::

    pytest benchmarks/test_bench_overload.py -s
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.loadgen import (
    OVERLOAD_SETTINGS,
    compute_load_bench,
    render_load_bench,
)

P99_FACTOR = float(os.environ.get("REPRO_BENCH_OVERLOAD_P99_FACTOR",
                                  "2.0"))
BLOWUP_FACTOR = float(os.environ.get(
    "REPRO_BENCH_OVERLOAD_BLOWUP_FACTOR", "2.5"))


def _pick(rows, label_prefix):
    (row,) = [r for r in rows if r.scenario == "overload"
              and r.label.startswith(label_prefix)]
    return row


@pytest.fixture(scope="module")
def rows():
    out = compute_load_bench(scenario_names=("overload",))
    print("\n" + render_load_bench(out))
    return out


def test_unbounded_backlog_grows_monotonically(rows):
    """With no admission bound, backlog at the quarter points of the
    trace must be strictly increasing — the queue never drains while
    arrivals outrun capacity."""
    unbounded = _pick(rows, "unbounded")
    assert unbounded.solved == unbounded.items  # nothing turned away
    assert unbounded.rejected == 0 and unbounded.shed == 0
    trace = unbounded.backlog
    assert len(trace) >= 8, "backlog trace too short to judge growth"
    quarters = [trace[(k * len(trace)) // 4] for k in (1, 2, 3)]
    print(f"unbounded backlog quarters: {quarters}, peak "
          f"{unbounded.peak_backlog}")
    assert quarters[0] < quarters[1] < quarters[2], (
        f"unbounded backlog not growing through the trace: {quarters}")


def test_unbounded_p99_blows_up(rows):
    uncontended = _pick(rows, "uncontended")
    unbounded = _pick(rows, "unbounded")
    print(f"p99: uncontended {uncontended.p99_ms:.1f}ms, unbounded "
          f"{unbounded.p99_ms:.1f}ms "
          f"({unbounded.p99_ms / uncontended.p99_ms:.2f}x, floor "
          f"{BLOWUP_FACTOR}x)")
    assert unbounded.p99_ms >= uncontended.p99_ms * BLOWUP_FACTOR, (
        f"unbounded p99 {unbounded.p99_ms:.1f}ms did not blow past "
        f"{BLOWUP_FACTOR} * uncontended {uncontended.p99_ms:.1f}ms — "
        "the trace is not actually overloading this machine")


def test_bounded_reject_keeps_p99_flat(rows):
    """The tentpole acceptance: a bounded service's p99 stays within
    P99_FACTOR of the uncontended p99 while the unbounded baseline
    degrades, and its backlog never exceeds the bound."""
    uncontended = _pick(rows, "uncontended")
    bounded = _pick(rows, "reject q=")
    setting = next(s for s in OVERLOAD_SETTINGS
                   if s.admission == "reject" and s.max_queue)
    assert bounded.peak_backlog <= setting.max_queue
    assert bounded.rejected > 0, "never saturated: not an overload test"
    assert bounded.solved + bounded.rejected == bounded.items
    print(f"p99: uncontended {uncontended.p99_ms:.1f}ms, bounded "
          f"{bounded.p99_ms:.1f}ms "
          f"({bounded.p99_ms / uncontended.p99_ms:.2f}x, ceiling "
          f"{P99_FACTOR}x)")
    assert bounded.p99_ms <= uncontended.p99_ms * P99_FACTOR, (
        f"bounded p99 {bounded.p99_ms:.1f}ms above {P99_FACTOR} * "
        f"uncontended {uncontended.p99_ms:.1f}ms")
    assert bounded.p99_ms < _pick(rows, "unbounded").p99_ms


def test_shed_policy_sheds_and_stays_bounded(rows):
    uncontended = _pick(rows, "uncontended")
    shed = _pick(rows, "shed q=")
    setting = next(s for s in OVERLOAD_SETTINGS if s.admission == "shed")
    assert shed.shed > 0, "deadline policy never shed anything"
    assert shed.solved + shed.rejected + shed.shed == shed.items
    assert shed.peak_backlog <= setting.max_queue
    ceiling = (uncontended.p99_ms
               + setting.default_deadline * 1e3) * P99_FACTOR
    print(f"shed p99 {shed.p99_ms:.1f}ms (ceiling {ceiling:.1f}ms), "
          f"outcomes {shed.solved}/{shed.rejected}/{shed.shed}")
    assert shed.p99_ms <= ceiling, (
        f"shed-policy p99 {shed.p99_ms:.1f}ms above {ceiling:.1f}ms")
    assert shed.p99_ms < _pick(rows, "unbounded").p99_ms
