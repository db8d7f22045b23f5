"""The load-bench settings grid, pinned row by row.

Every :class:`~repro.analysis.loadgen.Scenario` declares its own
settings grid as data.  This pin fixes the full grid — the
``(scenario, label)`` row order ``repro-jacobi load-bench`` reports,
and each row's batching, admission and gateway values — so a change to
the grid is always deliberate.  No replay runs here.
"""

from __future__ import annotations

import json

from repro.analysis.loadgen import (
    SCENARIOS,
    TENANTS_NOISY,
    TENANTS_QOS,
    build_matrices,
    build_trace,
    results_to_json,
)

_FIXED_WIDE = ("fixed b=16 d=50ms", 16, 0.05, False, 0, "reject", None,
               None, False)
_FIXED_NARROW = ("fixed b=2 d=2ms", 2, 0.002, False, 0, "reject", None,
                 None, False)
_ADAPTIVE = ("adaptive b=4 d=20ms", 4, 0.02, True, 0, "reject", None,
             None, False)

#: ``(scenario, label, max_batch, max_delay, adaptive, max_queue,
#: admission, default_deadline, gateway, picks its own trace)`` per row,
#: in report order.
GRID = (
    [(name,) + row for name in ("trickle", "bursty", "bimodal", "mixed")
     for row in (_FIXED_WIDE, _FIXED_NARROW, _ADAPTIVE)]
    + [("overload", "uncontended", 8, 0.01, False, 0, "reject", None,
        None, True),
       ("overload", "unbounded", 8, 0.01, False, 0, "reject", None,
        None, False),
       ("overload", "reject q=8", 8, 0.01, False, 8, "reject", None,
        None, False),
       ("overload", "shed q=24 dl=60ms", 8, 0.01, False, 24, "shed", 0.06,
        None, False),
       ("tenants", "small alone", 8, 0.01, False, 0, "reject", None,
        {}, True),
       ("tenants", "no QoS", 8, 0.01, False, 0, "reject", None,
        {}, False),
       ("tenants", "QoS noisy r=20 b=4 bronze", 8, 0.01, False, 0,
        "reject", None,
        {"noisy": {"rate": 20.0, "burst": 4, "priority": "bronze"}},
        False)])


def _rows():
    return [(scenario.name, s.label, s.max_batch, s.max_delay, s.adaptive,
             s.max_queue, s.admission, s.default_deadline, s.gateway,
             s.pick is not None)
            for scenario in SCENARIOS for s in scenario.settings]


def test_grid_row_order():
    assert [row[:2] for row in _rows()] == [row[:2] for row in GRID]
    assert len(GRID) == 19


def test_grid_values():
    assert _rows() == GRID
    assert TENANTS_QOS == GRID[-1][8]


def test_picked_traces():
    """The two rows that pick their own trace: the uncontended overload
    twin replays the first half stretched x12, and the small tenants
    replay alone."""
    by_name = {s.name: s for s in SCENARIOS}
    for name, label, check in (
            ("overload", "uncontended", lambda full, got: (
                len(got) == len(full) // 2
                and all(b.at == a.at * 12.0 for (a, _), (b, _)
                        in zip(full, got)))),
            ("tenants", "small alone", lambda full, got: (
                len(got) == sum(a.tenant != TENANTS_NOISY
                                for a, _ in full)
                and all(a.tenant != TENANTS_NOISY for a, _ in got)))):
        scenario = by_name[name]
        (setting,) = [s for s in scenario.settings if s.label == label]
        arrivals = build_trace(scenario, seed=0)
        full = list(zip(arrivals, build_matrices(arrivals, seed=0)))
        got = setting.pick(full)
        assert check(full, got), (name, label)
        # every picked matrix is the one its arrival carried in the trace
        assert all(any(A is B for _, B in full) for _, A in got)


def test_json_header_carries_every_grid():
    doc = json.loads(results_to_json([], seed=0, warmup_frac=0.2))
    assert [name for name in doc["settings"]] \
        == [s.name for s in SCENARIOS]
    assert [(name, row["label"]) for name, rows in doc["settings"].items()
            for row in rows] == [row[:2] for row in GRID]
    assert doc["settings"]["tenants"][-1]["gateway"] == TENANTS_QOS
    assert doc["settings"]["overload"][0]["pick"] is not None
    for key in ("fixed_settings", "adaptive_start", "overload_settings"):
        assert key not in doc
