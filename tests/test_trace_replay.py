"""Trace-driven replay: record -> replay -> re-record equivalence.

A traced run's timeline carries everything needed to reconstruct its
load: per-request offsets, kinds, shapes and deadlines
(:func:`~repro.analysis.loadgen.arrivals_from_timeline`), with matrix
content regenerated from the seed.  These tests pin that loop on a
deliberately deterministic scenario — a single instantaneous burst
against a bounded rejecting queue, where admission arithmetic (not
timing) decides every outcome — so recorded and replayed per-request
outcome sequences must be *equal*, not merely similar.
"""

from __future__ import annotations

import json
from concurrent.futures import Future

import numpy as np
import pytest

from repro.analysis import loadgen
from repro.analysis.events import EventTimeline, validate_lifecycles
from repro.analysis.loadgen import (
    TRACE_BUNDLE_SCHEMA,
    Arrival,
    Setting,
    TENANTS_QOS,
    arrivals_from_timeline,
    build_matrices,
    compute_load_bench,
    outcomes_from_timeline,
    replay,
    replay_recorded,
    replay_traced,
    trace_bundle_to_json,
)
from repro.errors import SimulationError

#: One instantaneous burst of identical eigen requests against a
#: 4-deep rejecting queue with batching limits no burst can trigger:
#: exactly the first 4 submissions are admitted (queued+inflight is 0,
#: 1, 2, 3 as they arrive) and the remaining 8 are rejected, whatever
#: the machine's timing does.
BURST = 12
ADMITTED = 4
SETTINGS = dict(max_batch=32, max_delay=0.5, max_queue=ADMITTED,
                admission="reject", d=1, warmup_frac=0.0)
SETTING = Setting("bounded", max_batch=32, max_delay=0.5,
                  max_queue=ADMITTED, admission="reject")
KW = dict(scenario="burst", d=1, warmup_frac=0.0)


def _burst():
    return [Arrival(at=0.0, kind="eigen", n=8, m=8)
            for _ in range(BURST)]


class TestRecordReplayEquivalence:
    def test_outcomes_are_deterministic_and_reconstructible(self):
        arrivals = _burst()
        matrices = build_matrices(arrivals, seed=11)
        res1, tl1 = replay_traced(arrivals, matrices, SETTING, **KW)
        assert res1.outcomes == (["solved"] * ADMITTED
                                 + ["rejected"] * (BURST - ADMITTED))
        assert validate_lifecycles(tl1) == {}
        assert outcomes_from_timeline(tl1) == res1.outcomes

        arr2 = arrivals_from_timeline(tl1)
        assert len(arr2) == BURST
        assert all(a.kind == "eigen" and (a.n, a.m) == (8, 8)
                   for a in arr2)
        mats2 = build_matrices(arr2, seed=11)
        for A, B in zip(matrices, mats2):
            assert np.array_equal(A, B)  # same seed, same matrices

        res2, tl2 = replay_traced(arr2, mats2, SETTING, **KW)
        assert res2.outcomes == res1.outcomes
        assert outcomes_from_timeline(tl2) == outcomes_from_timeline(tl1)

    def test_bundle_record_replay_rerecord(self):
        arrivals = _burst()
        matrices = build_matrices(arrivals, seed=11)
        _, tl = replay_traced(arrivals, matrices, SETTING, **KW)
        record = {"scenario": "burst", "label": "bounded",
                  "settings": dict(SETTINGS), "timeline": tl}
        bundle = json.loads(
            trace_bundle_to_json([record], seed=11, warmup_frac=0.0))
        assert bundle["schema"] == TRACE_BUNDLE_SCHEMA

        [(rec, res2, tl2)] = replay_recorded(bundle, trace=True)
        recorded = outcomes_from_timeline(
            EventTimeline.from_dict(rec["timeline"]))
        assert res2.outcomes == recorded
        assert outcomes_from_timeline(tl2) == recorded
        # re-record: a second replay of the same bundle agrees again
        [(_, res3, _)] = replay_recorded(bundle)
        assert res3.outcomes == res2.outcomes

    def test_recorded_deadlines_are_carried(self):
        arrivals = [Arrival(at=0.0, kind="eigen", n=8, m=8,
                            deadline=0.01)]
        matrices = build_matrices(arrivals, seed=0)
        res, tl = replay_traced(arrivals, matrices, Setting("l", 32, 0.5),
                                scenario="s", d=1)
        assert res.outcomes == ["shed"]  # expired long before the flush
        arr2 = arrivals_from_timeline(tl)
        assert arr2[0].deadline == pytest.approx(0.01)
        res2, _ = replay_traced(arr2, build_matrices(arr2, seed=0),
                                Setting("l", 32, 0.5), scenario="s",
                                d=1)
        assert res2.outcomes == ["shed"]

    def test_mixed_kinds_reconstruct_shapes(self):
        arrivals = [Arrival(at=0.0, kind="eigen", n=8, m=8),
                    Arrival(at=0.0, kind="svd", n=12, m=6)]
        matrices = build_matrices(arrivals, seed=2)
        _, tl = replay_traced(arrivals, matrices, Setting("l", 1, 0.0),
                              scenario="s", d=1)
        arr2 = arrivals_from_timeline(tl)
        assert [(a.kind, a.n, a.m) for a in arr2] \
            == [("eigen", 8, 8), ("svd", 12, 6)]

    def test_tenants_bundle_replays_through_the_gateway(self):
        """A recorded ``tenants`` run replays with its tenants and its
        gateway: every replayed submit carries the recorded tenant, the
        QoS row's settings carry its overrides, and each replayed row
        has per-tenant accounting."""
        sink = []
        compute_load_bench(("tenants",), items=24, trace_sink=sink)
        bundle = json.loads(
            trace_bundle_to_json(sink, seed=0, warmup_frac=0.2))
        replayed = replay_recorded(bundle, trace=True)
        assert [rec["label"] for rec, _, _ in replayed] \
            == ["small alone", "no QoS", "QoS noisy r=20 b=4 bronze"]
        for rec, res, tl in replayed:
            recorded = EventTimeline.from_dict(rec["timeline"])

            def tenants(timeline):
                return [ev.tenant for ev in timeline.events
                        if ev.stage == "submit"]

            assert tenants(recorded) and None not in tenants(recorded)
            assert tenants(tl) == tenants(recorded), rec["label"]
            assert res.tenants, rec["label"]
            assert res.outcomes == outcomes_from_timeline(recorded)
        qos = replayed[-1][0]
        assert qos["settings"]["gateway"] == TENANTS_QOS

    def test_replay_recorded_rejects_wrong_schema(self):
        with pytest.raises(SimulationError, match="bundle"):
            replay_recorded({"schema": "nope", "seed": 0, "traces": []})

    def test_arrivals_require_submit_events(self):
        empty = EventTimeline(source="service", events=(), meta={})
        with pytest.raises(SimulationError, match="submit"):
            arrivals_from_timeline(empty)


@pytest.mark.parametrize("gateway", [None, {}])
def test_unresolved_submissions_time_out(monkeypatch, gateway):
    """Direct and gateway rows alike give up after ``timeout`` when the
    service never resolves a submission."""

    class HungService(loadgen.JacobiService):
        def submit(self, A, **kwargs):
            return Future()  # never resolves

    monkeypatch.setattr(loadgen, "JacobiService", HungService)
    arrivals = [Arrival(at=0.0, kind="eigen", n=8, m=8, tenant="t")]
    with pytest.raises(SimulationError, match="1 of 1 submissions"):
        replay(arrivals, build_matrices(arrivals),
               Setting("hung", 1, 0.0, gateway=gateway), scenario="s",
               d=1, timeout=0.2)
