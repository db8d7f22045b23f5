"""Drive one workload phase through the public ``repro`` API and measure it.

A phase builds the workload's stack, warms it (pool workers spawned,
schedules built), measures for the given seconds, checks every result
and tears the stack down.  A traced phase also records spans around each
call into a layer and reads the service's own ``trace=True`` timeline
for the edges inside it.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks
import procstat
import workloads as wl
from spans import SpanRecorder

#: Which benchmark request the current asyncio task is sending; read by
#: :class:`TimedService` to tie a ``submit`` call to its request.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("request")


@dataclass
class Phase:
    """What one measured phase saw."""

    completed: int = 0
    attempted: int = 0
    received: int = 0
    failures: Counter = field(default_factory=Counter)
    latencies: List[float] = field(default_factory=list)
    window: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    sweeps: List[int] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    reference: Dict[str, List[float]] = field(default_factory=dict)
    spans: Optional[SpanRecorder] = None

    @property
    def throughput(self) -> float:
        return self.completed / self.window if self.window > 0 else 0.0

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] += count


class TimedService:
    """Stands in for the service the gateway calls: times each
    ``submit`` and notes when its future resolves."""

    def __init__(self, service: Any) -> None:
        self._service = service
        self.calls: List[Tuple[Any, float, float]] = []
        self.done: Dict[Any, float] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service, name)

    def submit(self, A: Any, **kwargs: Any) -> Any:
        rid = _REQUEST.get(None)
        t0 = time.monotonic()
        future = self._service.submit(A, **kwargs)
        self.calls.append((rid, t0, time.monotonic()))
        future.add_done_callback(
            lambda _f, rid=rid: self.done.__setitem__(rid, time.monotonic()))
        return future


def pct(values: List[float], q: float, scale: float = 1.0) -> float:
    """Percentile ``q`` of ``values`` times ``scale`` (0.0 when empty)."""
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _sample(seed: int, n: int, k: int) -> List[int]:
    """A seeded choice of ``k`` of ``n`` indices."""
    rng = np.random.default_rng([seed, 99])
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


# ----------------------------------------------------------------------
# ensemble: the batched engine, in-process
def ensemble(seed: int, seconds: float, traced: bool) -> Phase:
    from repro import ScheduleCache, SolveResult

    cache = ScheduleCache()
    engine = wl.build_engine(cache)
    phase = Phase(spans=SpanRecorder() if traced else None)
    first = wl.ensemble_batch(seed, 0)
    first_res = engine.solve(first)
    _check_batch(phase, first, first_res)
    solve_s = solve_cpu = 0.0
    rotations = pairs = 0
    index = 1
    stop = time.monotonic() + seconds
    while index == 1 or time.monotonic() < stop:
        r0 = time.monotonic()
        batch = wl.ensemble_batch(seed, index)
        c0, t0 = time.process_time(), time.monotonic()
        res = engine.solve(batch)
        t1, c1 = time.monotonic(), time.process_time()
        solve_s += t1 - t0
        solve_cpu += c1 - c0
        phase.latencies.append(t1 - t0)
        rotations += res.stats.rotations_applied
        pairs += res.stats.pairs_seen
        _check_batch(phase, batch, res)
        if traced:
            # The request spans making, solving and checking the batch,
            # so the coverage check asks how much of it the engine is.
            root = phase.spans.add("request", r0, time.monotonic(),
                                   request=index)
            phase.spans.add("engine.solve", t0, t1, root, index)
        phase.completed += len(batch)
        index += 1
    phase.window, phase.cpu = solve_s, solve_cpu
    phase.rss_mb = procstat.peak_rss_mb()
    rows = [(first[k], SolveResult(first_res.eigenvalues[k],
                                   first_res.eigenvectors[k],
                                   int(first_res.sweeps[k]),
                                   bool(first_res.converged[k])))
            for k in _sample(seed, len(first), 3)]
    _bits_eigen(phase, rows, *wl.WORKLOADS["ensemble"].ordering)
    if traced:
        info = cache.cache_info()
        phase.layer.update({
            "orderings.cache_hit_ratio":
                info.hits / max(1, info.hits + info.misses),
            "engine.solve_ms_per_matrix": 1e3 * solve_s / phase.completed,
            "engine.rotations_per_matrix": rotations / phase.completed,
            "engine.rotation_yield": rotations / max(1, pairs),
        })
    return phase


def _check_batch(phase: Phase, batch: np.ndarray, res: Any) -> None:
    phase.attempted += len(batch)
    for k, A in enumerate(batch):
        phase.sweeps.append(int(res.sweeps[k]))
        if not (res.converged[k] and checks.eigen_ok(
                A, res.eigenvalues[k], res.eigenvectors[k])):
            phase.fail("wrong")


# ----------------------------------------------------------------------
# bit-identity sample against the sequential solvers; its timings are
# the jacobi layer's reference costs
def _bits_eigen(phase: Phase, pairs: List[Tuple[np.ndarray, Any]],
                ordering: str, d: int) -> None:
    for A, got in pairs:
        t0 = time.perf_counter()
        want = checks.sequential_eigen(A, ordering, d)
        _reference(phase, time.perf_counter() - t0,
                   _lapack(np.linalg.eigh, A))
        phase.attempted += 1
        if not checks.same_bits(got, want, checks.EIGEN_FIELDS):
            phase.fail("bits")


def _bits_svd(phase: Phase, pairs: List[Tuple[np.ndarray, Any]]) -> None:
    for A, got in pairs:
        t0 = time.perf_counter()
        want = checks.sequential_svd(A)
        _reference(phase, time.perf_counter() - t0, _lapack(
            lambda X: np.linalg.svd(X, full_matrices=False), A))
        phase.attempted += 1
        if not checks.same_bits(got, want, checks.SVD_FIELDS):
            phase.fail("bits")


def _reference(phase: Phase, sequential: float, lapack: float) -> None:
    phase.reference.setdefault("sequential", []).append(sequential)
    phase.reference.setdefault("lapack", []).append(lapack)


def _lapack(fn: Any, A: np.ndarray, reps: int = 200) -> float:
    """Seconds per LAPACK call on ``A`` (small calls repeated)."""
    fn(A)
    t0 = time.perf_counter()
    for _ in range(reps):
        fn(A)
    return (time.perf_counter() - t0) / reps


# ----------------------------------------------------------------------
# stream and saturate: the gateway over a pooled service
def served(name: str, seed: int, seconds: float, traced: bool) -> Phase:
    from repro.service import AsyncGateway

    service = wl.build_service(name, trace=traced)
    phase = Phase(spans=SpanRecorder() if traced else None)
    try:
        proxy = TimedService(service) if traced else None
        gateway = AsyncGateway(proxy if traced else service)
        run = _stream if name == "stream" else _saturate
        times = asyncio.run(run(gateway, service, phase, seed, seconds,
                                traced))
        phase.rss_mb = procstat.peak_rss_mb()
    finally:
        service.close()
    problems = checks.ledger_problems(service.stats(), gateway.stats(),
                                      phase.received)
    for problem in problems:
        print(f"ledger: {problem}")
    phase.fail("ledger", len(problems))
    if traced:
        _served_layers(phase, service, proxy, times)
    return phase


async def burst(gateway: Any, requests: List[Tuple[str, np.ndarray]],
                phase: Phase) -> None:
    """Send ``requests`` through the gateway all at once and check each
    result."""
    results = await asyncio.gather(
        *(gateway.submit(A, kind=kind, tenant=wl.TENANTS[0])
          for kind, A in requests), return_exceptions=True)
    for (kind, A), res in zip(requests, results):
        phase.attempted += 1
        if isinstance(res, BaseException):
            phase.fail(type(res).__name__)
            continue
        phase.received += 1
        if not _ok(kind, A, res):
            phase.fail("wrong")


async def _warm(gateway: Any, requests: List[Tuple[str, np.ndarray]],
                phase: Phase) -> None:
    """Two concurrent bursts: enough flushes in flight at once that the
    pool spawns both workers before the window opens."""
    half = len(requests) // 2
    for part in (requests[:half], requests[half:]):
        await burst(gateway, part, phase)


def _ok(kind: str, A: np.ndarray, res: Any) -> bool:
    if not res.converged:
        return False
    if kind == "svd":
        return checks.svd_ok(A, res.U, res.S, res.Vt)
    return checks.eigen_ok(A, res.eigenvalues, res.eigenvectors)


async def _stream(gateway: Any, service: Any, phase: Phase, seed: int,
                  seconds: float, traced: bool) -> Dict[Any, tuple]:
    warm = wl.stream_plan(seed, 0.45, stream=0)
    await _warm(gateway, [(a.kind, a.matrix) for a in warm], phase)
    plan = wl.stream_plan(seed, seconds, stream=2 if traced else 1)
    before = _counters(service, gateway)
    results: List[Any] = [None] * len(plan)
    lags: List[float] = []
    times: Dict[Any, tuple] = {}

    async def one(i: int, arrival: wl.Arrival, due: float) -> None:
        start = time.monotonic()
        lags.append(start - due)
        _REQUEST.set(i)
        try:
            res = await gateway.submit(arrival.matrix, kind=arrival.kind,
                                       tenant=arrival.tenant)
        except Exception as exc:  # a refusal or failure is counted
            phase.fail(type(exc).__name__)
            return
        end = time.monotonic()
        phase.latencies.append(end - due)
        results[i] = res
        times[i] = (due, start, end)

    tasks = []
    cpu0, t0 = procstat.cpu_seconds(), time.monotonic()
    for i, arrival in enumerate(plan):
        due = t0 + arrival.offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(i, arrival, due)))
    await asyncio.gather(*tasks)
    phase.window = max((t[2] for t in times.values()), default=t0) - t0
    phase.cpu = procstat.cpu_seconds() - cpu0
    _diff_counters(phase, before, _counters(service, gateway))
    phase.attempted += len(plan)
    for i, arrival in enumerate(plan):
        if results[i] is None:
            continue
        phase.completed += 1
        phase.received += 1
        phase.sweeps.append(int(results[i].sweeps))
        if not _ok(arrival.kind, arrival.matrix, results[i]):
            phase.fail("wrong")
    picks = [i for i in _sample(seed, len(plan), 12)
             if results[i] is not None]
    _bits_eigen(phase, [(plan[i].matrix, results[i]) for i in picks
                        if plan[i].kind == "eigen"],
                service.ordering, service.d)
    _bits_svd(phase, [(plan[i].matrix, results[i]) for i in picks
                      if plan[i].kind == "svd"])
    phase.layer["loadgen.lag_p99_ms"] = pct(lags, 99, 1e3)
    return times


async def _saturate(gateway: Any, service: Any, phase: Phase, seed: int,
                    seconds: float, traced: bool) -> Dict[Any, tuple]:
    spec = wl.WORKLOADS["saturate"]
    m = spec.shapes[0][1]
    warm_rng = wl.client_rng(seed, 0, stream=0)
    await _warm(gateway, [("eigen", wl.symmetric(warm_rng, m))
                          for _ in range(2 * spec.clients)], phase)
    stream = 2 if traced else 1
    before = _counters(service, gateway)
    eigvals: Dict[Tuple[int, int], np.ndarray] = {}
    kept: List[Tuple[np.ndarray, Any]] = []
    keep = set(_sample(seed, spec.clients, 3))
    times: Dict[Any, tuple] = {}
    counts = [0] * spec.clients

    async def client(c: int) -> None:
        rng = wl.client_rng(seed, c, stream)
        while time.monotonic() < stop:
            A = wl.symmetric(rng, m)
            k = counts[c]
            counts[c] += 1
            _REQUEST.set((c, k))
            start = time.monotonic()
            try:
                res = await gateway.submit(A, tenant=wl.TENANTS[c % 4])
            except Exception as exc:  # a refusal or failure is counted
                phase.fail(type(exc).__name__)
                continue
            end = time.monotonic()
            phase.latencies.append(end - start)
            times[(c, k)] = (start, start, end)
            phase.sweeps.append(int(res.sweeps))
            # Whole results are not kept, or memory would grow with
            # throughput: residual and orthogonality now, eigenvalues
            # against LAPACK after the window.
            scale = max(1.0, float(np.abs(res.eigenvalues).max()))
            if not (res.converged and checks.residual_ok(
                    A, res.eigenvalues, res.eigenvectors, scale)):
                phase.fail("wrong")
            eigvals[(c, k)] = res.eigenvalues
            if c in keep and k < 2:
                kept.append((A, res))

    cpu0, t0 = procstat.cpu_seconds(), time.monotonic()
    stop = t0 + seconds
    await asyncio.gather(*(client(c) for c in range(spec.clients)))
    phase.window = max((t[2] for t in times.values()), default=t0) - t0
    phase.cpu = procstat.cpu_seconds() - cpu0
    _diff_counters(phase, before, _counters(service, gateway))
    phase.attempted += sum(counts)
    phase.completed = len(times)
    phase.received += len(times)
    for c in range(spec.clients):
        rng = wl.client_rng(seed, c, stream)
        for k in range(counts[c]):
            A = wl.symmetric(rng, m)
            got = eigvals.get((c, k))
            if got is None:
                continue
            ref = np.linalg.eigh(A)[0]
            scale = max(1.0, float(np.abs(ref).max()))
            if not np.all(np.abs(got - ref) <= checks.TOL * scale):
                phase.fail("wrong")
    _bits_eigen(phase, kept, service.ordering, service.d)
    phase.layer["loadgen.lag_p99_ms"] = 0.0
    return times


# ----------------------------------------------------------------------
# per-layer numbers of a served phase
def _counters(service: Any, gateway: Any) -> Dict[str, float]:
    s = service.stats()
    t = s.transport_counters
    total = gateway.stats().total
    return {"batches": s.batches, "items": s.mean_batch_size * s.batches,
            "deadline": s.flushes.get("deadline", 0),
            "bytes": t["bytes_in"] + t["bytes_out"],
            "created": t["segments_created"],
            "reused": t["segments_reused"],
            "refused": total.throttled + total.rejected}


def _diff_counters(phase: Phase, before: Dict[str, float],
                   after: Dict[str, float]) -> None:
    d = {k: after[k] - before[k] for k in before}
    batches = max(1, d["batches"])
    phase.layer.update({
        "batcher.batch_mean": d["items"] / batches,
        "batcher.deadline_flush_ratio": d["deadline"] / batches,
        "transport.bytes_per_matrix": d["bytes"] / max(1, d["items"]),
        "transport.segment_reuse_ratio":
            d["reused"] / max(1, d["created"] + d["reused"]),
        "gateway.refused": d["refused"],
    })


def _served_layers(phase: Phase, service: Any, proxy: TimedService,
                   times: Dict[Any, tuple]) -> None:
    """Stitch the service timeline to the benchmark's own spans and
    reduce both to the per-layer metrics."""
    from repro.analysis.events import (EventTimeline, request_spans,
                                       worker_utilisation)

    timeline = service.trace()
    epoch = service.tracer.epoch
    # Every submit goes through the proxy on one thread, so the k-th
    # "submit" event is the k-th proxy call; its timestamp must fall
    # inside that call, or the stitching is wrong.
    submits = [ev for ev in timeline.events if ev.stage == "submit"]
    service_req: Dict[Any, int] = {}
    for ev, (rid, t0, t1) in zip(submits, proxy.calls):
        if rid in times:
            if not t0 <= epoch + ev.t <= t1:
                phase.fail("trace")
            service_req[rid] = ev.request
    if len(submits) != len(proxy.calls) or len(service_req) != len(times):
        phase.fail("trace")
    calls = {rid: (t0, t1) for rid, t0, t1 in proxy.calls}
    events = timeline.by_request()
    rec = phase.spans
    for rid, (due, start, end) in times.items():
        root = rec.add("request", due, end, request=rid)
        if start > due:
            rec.add("loadgen.lag", due, start, root, rid)
        gw = rec.add("gateway.submit", start, end, root, rid)
        rec.add("service.submit", *calls[rid], gw, rid)
        at = {}
        for ev in events.get(service_req.get(rid), ()):
            at.setdefault(ev.stage, ev)
        t = {stage: epoch + ev.t for stage, ev in at.items()}
        for name, a, b in (("batcher.queue", "enqueued", "flushed"),
                           ("pool.dispatch", "flushed", "dispatched"),
                           ("pool.merge", "solved", "resolved")):
            if a in t and b in t:
                rec.add(name, t[a], t[b], gw, rid)
        if "dispatched" in t and "solved" in t:
            hop = rec.add("pool.roundtrip", t["dispatched"], t["solved"],
                          gw, rid)
            elapsed = at["solved"].meta.get("elapsed") or 0.0
            rec.add("engine.solve", max(t["dispatched"], t["solved"]
                                        - elapsed), t["solved"], hop, rid)
        if rid in proxy.done:
            rec.add("gateway.bridge", proxy.done[rid], end, gw, rid)

    window = set(service_req.values())
    spans = [s for req, s in request_spans(timeline).items()
             if req in window]

    def stage(name: str) -> List[float]:
        return [s[name] for s in spans if s[name] is not None]

    batches: Dict[Any, List[float]] = {}
    for ev in timeline.events:
        if ev.stage == "solved":
            row = batches.setdefault(ev.batch, [0.0, 0, False])
            row[0] = float(ev.meta.get("elapsed") or 0.0)
            row[1] += 1
            row[2] = row[2] or ev.request in window
    solved = [row for row in batches.values() if row[2]]
    busy = worker_utilisation(EventTimeline(
        source="service", events=tuple(
            ev for ev in timeline.events if ev.request in window)))
    own = [(calls[rid], times[rid]) for rid in times]
    phase.layer.update({
        "engine.solve_ms_per_matrix": 1e3 * sum(r[0] for r in solved)
        / max(1, sum(r[1] for r in solved)),
        "service.submit_us_p50": pct([c[1] - c[0] for c, _ in own], 50, 1e6),
        "service.submit_us_p99": pct([c[1] - c[0] for c, _ in own], 99, 1e6),
        "batcher.queue_ms_p50": pct(stage("queue"), 50, 1e3),
        "batcher.queue_ms_p99": pct(stage("queue"), 99, 1e3),
        "pool.dispatch_ms_p50": pct(stage("dispatch"), 50, 1e3),
        "pool.solve_ms_p50": pct(stage("solve"), 50, 1e3),
        "pool.solve_ms_p99": pct(stage("solve"), 99, 1e3),
        "pool.merge_ms_p50": pct(stage("merge"), 50, 1e3),
        "pool.worker_busy_ratio": sum(r["busy"] for r in busy.values())
        / max(1e-9, service.workers * phase.window),
        "gateway.self_us_p50": pct([c[0] - t[1] for c, t in own], 50, 1e6),
        "gateway.self_us_p99": pct([c[0] - t[1] for c, t in own], 99, 1e6),
        "gateway.bridge_us_p50": pct([times[rid][2] - proxy.done[rid]
                                      for rid in times if rid in proxy.done],
                                     50, 1e6),
    })
