"""Load-generator harness: batching, admission and QoS under live load.

The service benchmarks elsewhere in the repo measure *closed* loops —
hand the engine an ensemble, time the run.  This module measures the
:class:`~repro.service.JacobiService` the way production traffic hits
it: **open-loop** replay of a seeded arrival trace.  Each scenario is a
deterministic schedule of ``(arrival time, traffic kind, shape)``
tuples; the replayer submits every matrix at its scheduled instant
(never waiting for earlier results, so a slow service accumulates
backlog exactly like a real queue) and measures, per item, the time
from *scheduled arrival* to future resolution — which charges
coordinated omission to the service, not the generator.

Six traffic shapes are bundled, chosen to pull the batching and QoS
knobs in opposite directions:

* ``trickle`` — sparse arrivals; batches never fill, so a fixed
  ``max_delay`` is pure added latency;
* ``bursty`` — arrival spikes above the small-batch solve capacity, so
  a fixed ``max_batch`` caps throughput;
* ``bimodal`` — the matrix shape flips between regimes, exercising
  per-key tuning;
* ``mixed`` — interleaved eigen and SVD submissions, exercising both
  traffic classes at once;
* ``overload`` — sustained arrivals *above* solve capacity, exercising
  the admission layer rather than the batching knobs;
* ``tenants`` — one noisy neighbour flooding many small tenants
  through the :class:`~repro.service.gateway.AsyncGateway`, exercising
  per-tenant quotas and priorities rather than the batching knobs.

Every :class:`Scenario` declares its own settings grid as data: a tuple
of :class:`Setting` rows, each holding the service's batching and
admission knobs, optional gateway tenant overrides, and optionally a
way to pick the row's trace out of the scenario's.  The four batching
scenarios share :data:`BATCHING_SETTINGS` (a throughput-tuned and a
latency-tuned fixed baseline plus the :data:`ADAPTIVE` controller);
``overload`` runs :data:`OVERLOAD_SETTINGS` (an uncontended stretched
replay of the same bursts, the unbounded baseline, and bounded
``"reject"`` / ``"shed"`` admission); ``tenants`` runs
:data:`TENANTS_SETTINGS` through the gateway (the small tenants alone,
the flood ungated, and the flood under :data:`TENANTS_QOS`).

:func:`compute_load_bench` replays every scenario against every row of
its grid (same seeded matrices, same trace) through one open-loop
asyncio driver, and reports post-warm-up p50/p99 latency, overall
throughput, per-item outcomes and the sampled backlog trace — this is
what ``repro-jacobi load-bench`` renders and what CI uploads as an
artifact.  Percentiles exclude a leading warm-up fraction of the trace
(default 20%): the adaptive service *starts* at its fixed configuration
and needs a few tuning windows to converge, and steady state is what
the latency comparison is about.  Throughput is measured over the whole
run, warm-up included.  Latency percentiles always cover *solved* items
only; rejected, throttled and shed items resolve in microseconds and
would make an overloaded service look absurdly fast.  Under overload the
unbounded baseline's backlog grows without bound while the bounded
services' latency stays flat, which is the whole argument for admission
control.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueueFull, QuotaExceeded, ShedError, SimulationError
from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.onesided import make_symmetric_test_matrix
from ..service import (
    AsyncGateway,
    GatewayConfig,
    JacobiService,
    TuningBounds,
)
from .events import EventTimeline
from .report import render_table

__all__ = [
    "Arrival",
    "Setting",
    "Scenario",
    "SCENARIOS",
    "BATCHING_SETTINGS",
    "ADAPTIVE",
    "ADAPTIVE_BOUNDS",
    "OVERLOAD_SETTINGS",
    "TENANTS_SETTINGS",
    "TENANTS_NOISY",
    "TENANTS_SMALL",
    "TENANTS_QOS",
    "LoadResult",
    "TRACE_BUNDLE_SCHEMA",
    "build_trace",
    "build_matrices",
    "replay",
    "replay_traced",
    "compute_load_bench",
    "render_load_bench",
    "render_tenant_bench",
    "results_to_json",
    "arrivals_from_timeline",
    "outcomes_from_timeline",
    "trace_bundle_to_json",
    "replay_recorded",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission of a load trace.

    Attributes
    ----------
    at:
        Seconds after the replay starts at which the submission fires.
    kind:
        Traffic class (``"eigen"`` or ``"svd"``).
    n, m:
        Matrix shape: eigen matrices are ``(m, m)`` symmetric, SVD
        matrices are ``(n, m)`` tall/square.
    deadline:
        Per-request deadline in seconds handed to
        :meth:`~repro.service.api.JacobiService.submit` (``None`` =
        the service default) — carried so a trace-driven replay
        reproduces recorded deadlines.
    tenant:
        Tenant label of a multi-tenant trace (``None`` = untenanted),
        handed to the service or, on gateway rows, to the
        :class:`~repro.service.gateway.AsyncGateway`.
    """

    at: float
    kind: str
    n: int
    m: int
    deadline: Optional[float] = None
    tenant: Optional[str] = None


#: A replay's load: each arrival with its pre-generated matrix.
Load = List[Tuple[Arrival, np.ndarray]]


@dataclass(frozen=True)
class Setting:
    """One row of a scenario's settings grid.

    Attributes
    ----------
    label:
        Report label.
    max_batch, max_delay:
        The service's batching limits (the adaptive run's start).
    adaptive:
        Let the service tune its own limits within
        :data:`ADAPTIVE_BOUNDS` during the replay.
    max_queue, admission, default_deadline:
        The service's admission bound (0 = unbounded), its overload
        policy at capacity, and its per-request deadline in seconds
        (``None`` = no expiry); see :mod:`repro.service.admission`.
        Rejected submissions are counted, not raised: an open-loop
        generator keeps firing the trace regardless.
    gateway:
        Per-tenant :class:`~repro.service.tenancy.GatewayConfig`
        overrides, ``{tenant: {knob: value}}`` like
        :data:`TENANTS_QOS`.  A dict — an empty one included — routes
        every arrival through an
        :class:`~repro.service.gateway.AsyncGateway`; ``None`` submits
        straight to the service.
    pick:
        Picks the ``(arrival, matrix)`` pairs this row replays out of
        the scenario's load (``None`` = all of it).  Trace records
        leave it out: a record's timeline already holds the picked
        arrivals.
    """

    label: str
    max_batch: int
    max_delay: float
    adaptive: bool = False
    max_queue: int = 0
    admission: str = "reject"
    default_deadline: Optional[float] = None
    gateway: Optional[Dict[str, Dict[str, Any]]] = None
    pick: Optional[Callable[[Load], Load]] = None


@dataclass(frozen=True)
class Scenario:
    """A named, seeded arrival-trace generator and its settings grid.

    Attributes
    ----------
    name:
        CLI-facing identifier (``trickle`` / ``bursty`` / ...).
    description:
        One line on the traffic shape and what it stresses.
    default_items:
        Trace length when the caller does not override it.
    build:
        ``(items, rng) -> list of Arrival`` — must be a pure function
        of its arguments so a seed pins the whole trace.
    settings:
        The rows :func:`compute_load_bench` replays the trace against,
        in report order.
    """

    name: str
    description: str
    default_items: int
    build: Callable[[int, np.random.Generator], List[Arrival]]
    settings: Tuple[Setting, ...]


def _trickle(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Sparse eigen arrivals: exponential gaps (mean 30 ms) longer than
    any sensible deadline, so batches never fill."""
    t, out = 0.0, []
    for _ in range(items):
        t += float(rng.exponential(0.03))
        out.append(Arrival(at=t, kind="eigen", n=16, m=16))
    return out


def _bursty(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Arrival spikes: bursts of 32 eigen matrices every 60 ms — above
    the small-batch solve capacity, so backlog builds unless batches
    grow."""
    out = []
    burst = 32
    for k in range(items):
        out.append(Arrival(at=(k // burst) * 0.06, kind="eigen",
                           n=24, m=24))
    return out


def _bimodal(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Shape regimes: blocks of 10 arrivals alternate between small
    (8x8) and large (24x24) eigen matrices — two keys, each needing its
    own tuning."""
    t, out = 0.0, []
    for k in range(items):
        t += float(rng.exponential(0.008))
        m = 8 if (k // 10) % 2 == 0 else 24
        out.append(Arrival(at=t, kind="eigen", n=m, m=m))
    return out


def _mixed(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Both traffic classes on one service: eigen 16x16 and SVD 24x12
    submissions interleave with exponential gaps (mean 15 ms)."""
    t, out = 0.0, []
    for k in range(items):
        t += float(rng.exponential(0.015))
        if k % 2 == 0:
            out.append(Arrival(at=t, kind="eigen", n=16, m=16))
        else:
            out.append(Arrival(at=t, kind="svd", n=24, m=12))
    return out


#: The adaptive run of the batching grid, starting from a deliberate
#: middle ground.
ADAPTIVE = Setting("adaptive b=4 d=20ms", 4, 0.02, adaptive=True)

#: The grid of the four batching scenarios: a throughput-tuned fixed
#: baseline (large batches, long deadline), a latency-tuned one (small
#: batches, short deadline) — each the wrong constant for at least one
#: scenario, that is the point — and the adaptive controller.
BATCHING_SETTINGS: Tuple[Setting, ...] = (
    Setting("fixed b=16 d=50ms", 16, 0.05),
    Setting("fixed b=2 d=2ms", 2, 0.002),
    ADAPTIVE,
)

#: The envelope the adaptive run may tune within.
ADAPTIVE_BOUNDS = TuningBounds(min_batch=1, max_batch=64,
                               min_delay=0.0005, max_delay=0.05)

#: Tuning window of the adaptive replays (small: the traces are short).
ADAPTIVE_WINDOW = 5


#: Overload trace shape: bursts of this many heavy eigen matrices ...
OVERLOAD_BURST = 8
#: ... every this many seconds — well above one-core solve capacity.
OVERLOAD_PERIOD = 0.012
#: Stretch factor of the uncontended twin replay (same bursts, period
#: multiplied by this, so the service fully drains between bursts).
OVERLOAD_STRETCH = 12.0
#: Batching limits shared by every overload row — admission, not
#: batching, is the variable under test.
OVERLOAD_BATCH = 8
OVERLOAD_DELAY = 0.01


def _overload(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Sustained overload: bursts of heavy (32x32) eigen matrices
    arriving faster than they can be solved, so an unbounded queue
    grows without bound for as long as the trace lasts."""
    return [Arrival(at=(k // OVERLOAD_BURST) * OVERLOAD_PERIOD,
                    kind="eigen", n=32, m=32) for k in range(items)]


def _stretched_first_half(load: Load) -> Load:
    """The first half of the trace at 1/``OVERLOAD_STRETCH`` the rate:
    the same bursts, fully drained in between — the latency floor every
    bounded overload row is judged against."""
    half = max(OVERLOAD_BURST, len(load) // 2)
    return [(replace(a, at=a.at * OVERLOAD_STRETCH), A)
            for a, A in load[:half]]


#: The overload grid: the uncontended stretched twin, the unbounded
#: baseline (backlog and latency grow without bound), fail-fast
#: rejection with a one-batch queue, and deadline-based shedding with a
#: deeper queue.
OVERLOAD_SETTINGS: Tuple[Setting, ...] = (
    Setting("uncontended", OVERLOAD_BATCH, OVERLOAD_DELAY,
            pick=_stretched_first_half),
    Setting("unbounded", OVERLOAD_BATCH, OVERLOAD_DELAY),
    Setting("reject q=8", OVERLOAD_BATCH, OVERLOAD_DELAY, max_queue=8),
    Setting("shed q=24 dl=60ms", OVERLOAD_BATCH, OVERLOAD_DELAY,
            max_queue=24, admission="shed", default_deadline=0.06),
)


#: The multi-tenant cast: one flooding neighbour ...
TENANTS_NOISY = "noisy"
#: ... and several small, well-behaved tenants.
TENANTS_SMALL: Tuple[str, ...] = ("small0", "small1", "small2")
#: Noisy-neighbour flood shape: bursts of this many matrices ...
TENANTS_BURST = 8
#: ... every this many seconds.
TENANTS_PERIOD = 0.03
#: Share of the trace the noisy neighbour fires (the rest is split
#: round-robin over the small tenants).
TENANTS_NOISY_SHARE = 0.75
#: The QoS knobs the ``tenants`` scenario's gated row applies to the
#: noisy neighbour: a tight token-bucket quota plus bottom priority.
TENANTS_QOS: Dict[str, Dict[str, Any]] = {
    TENANTS_NOISY: {"rate": 20.0, "burst": 4, "priority": "bronze"},
}
#: Batching limits shared by every tenants row — all three ride one
#: traffic class (16x16 eigen), so QoS, not batching, is the variable
#: under test.
TENANTS_BATCH = 8
TENANTS_DELAY = 0.01


def _tenants(items: int, rng: np.random.Generator) -> List[Arrival]:
    """One noisy neighbour against many small tenants, all on the same
    traffic class (16x16 eigen, one batch key): the noisy tenant fires
    bursts well above its fair share while the small tenants trickle —
    whether the smalls' latency survives is a QoS question, not a
    batching one."""
    noisy_items = int(items * TENANTS_NOISY_SHARE)
    out = [Arrival(at=(k // TENANTS_BURST) * TENANTS_PERIOD,
                   kind="eigen", n=16, m=16, tenant=TENANTS_NOISY)
           for k in range(noisy_items)]
    t = 0.0
    for k in range(items - noisy_items):
        t += float(rng.exponential(0.01))
        out.append(Arrival(
            at=t, kind="eigen", n=16, m=16,
            tenant=TENANTS_SMALL[k % len(TENANTS_SMALL)]))
    return sorted(out, key=lambda a: a.at)


def _without_noisy(load: Load) -> Load:
    """The small tenants' arrivals alone: their latency floor."""
    return [(a, A) for a, A in load if a.tenant != TENANTS_NOISY]


#: The tenants grid, every row through the gateway: the small tenants
#: alone, the full trace ungated (the noisy-neighbour baseline), and
#: the full trace under :data:`TENANTS_QOS` — the isolation the tenants
#: benchmark pins.
TENANTS_SETTINGS: Tuple[Setting, ...] = (
    Setting("small alone", TENANTS_BATCH, TENANTS_DELAY, gateway={},
            pick=_without_noisy),
    Setting("no QoS", TENANTS_BATCH, TENANTS_DELAY, gateway={}),
    Setting("QoS noisy r=20 b=4 bronze", TENANTS_BATCH, TENANTS_DELAY,
            gateway=TENANTS_QOS),
)


#: The bundled scenarios, in report order.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("trickle",
             "sparse arrivals; fixed max_delay is pure added latency",
             40, _trickle, BATCHING_SETTINGS),
    Scenario("bursty",
             "32-wide spikes above small-batch capacity; fixed "
             "max_batch caps throughput",
             160, _bursty, BATCHING_SETTINGS),
    Scenario("bimodal",
             "matrix shape flips between regimes; per-key tuning",
             60, _bimodal, BATCHING_SETTINGS),
    Scenario("mixed",
             "interleaved eigen and SVD traffic classes",
             40, _mixed, BATCHING_SETTINGS),
    Scenario("overload",
             "sustained arrivals above solve capacity; admission "
             "policies vs the unbounded baseline",
             96, _overload, OVERLOAD_SETTINGS),
    Scenario("tenants",
             "one noisy neighbour floods many small tenants; gateway "
             "QoS vs the ungated baseline",
             96, _tenants, TENANTS_SETTINGS),
)


@dataclass(frozen=True)
class LoadResult:
    """One (scenario, setting) replay outcome.

    Attributes
    ----------
    scenario, label:
        Which trace, which :class:`Setting` row.
    items:
        Submissions replayed.
    measured:
        Items in the post-warm-up latency sample.
    p50_ms, p99_ms:
        Latency percentiles (scheduled arrival -> future resolution) of
        the post-warm-up sample, in milliseconds.
    throughput:
        Completed solves per second over the whole replay (first
        scheduled arrival to last resolution).
    flushes:
        Released micro-batches by cause.
    mean_batch_size:
        Submitted items per flush.
    retunes:
        Applied tuning decisions (0 for fixed settings).
    final_limits:
        Per-key ``(max_batch, max_delay)`` overrides at the end of the
        replay (empty for fixed settings).
    tuning:
        The applied tuning trace as plain dicts (``t`` is seconds into
        the replay), JSON-ready; empty for fixed settings.
    solved, rejected, shed:
        Per-item outcomes: submissions resolving to a result /
        refused with :class:`~repro.errors.QueueFull` or, on gateway
        rows, :class:`~repro.errors.QuotaExceeded` / resolving to
        :class:`~repro.errors.ShedError`.  On an
        unbounded service ``solved == items``.  Latency percentiles
        cover solved items only.
    peak_backlog:
        Largest sampled backlog (batcher queue plus in-flight items)
        observed at any submission instant.
    backlog:
        The backlog samples (one per submission instant), downsampled
        to at most 64 evenly-spaced points — the unbounded baseline's
        grows monotonically under overload, the bounded settings' stay
        capped at ``max_queue``.
    outcomes:
        Per-arrival outcome in trace order (``"solved"`` /
        ``"rejected"`` / ``"shed"`` / ``"failed"``, plus
        ``"throttled"`` on gateway rows) — what the record->replay
        determinism tests compare.
    tenants:
        Per-tenant accounting of a gateway row: gateway ledger
        counters plus the tenant's solved-only post-warm-up latency
        sample (``latencies_ms`` with its ``p50_ms`` / ``p99_ms``).
        Empty for rows submitting straight to the service.
    """

    scenario: str
    label: str
    items: int
    measured: int
    p50_ms: float
    p99_ms: float
    throughput: float
    flushes: Dict[str, int]
    mean_batch_size: float
    retunes: int
    final_limits: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    tuning: List[Dict[str, Any]] = field(default_factory=list)
    solved: int = 0
    rejected: int = 0
    shed: int = 0
    peak_backlog: int = 0
    backlog: List[int] = field(default_factory=list)
    outcomes: List[str] = field(default_factory=list)
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def build_trace(scenario: Scenario, items: Optional[int] = None,
                seed: int = 0) -> List[Arrival]:
    """Generate one scenario's deterministic arrival trace.

    Parameters
    ----------
    scenario:
        The :class:`Scenario` to expand.
    items:
        Trace length override (``None`` uses the scenario default).
    seed:
        RNG seed; the same ``(scenario, items, seed)`` always yields
        the same trace.

    Returns
    -------
    list of Arrival
        Sorted by scheduled time.
    """
    items = scenario.default_items if items is None else int(items)
    if items < 1:
        raise SimulationError(f"items must be >= 1, got {items}")
    rng = np.random.default_rng((seed,) + tuple(scenario.name.encode()))
    return scenario.build(items, rng)


def build_matrices(arrivals: Sequence[Arrival],
                   seed: int = 0) -> List[np.ndarray]:
    """Pre-generate the seeded matrix per arrival.

    Parameters
    ----------
    arrivals:
        The trace to materialise matrices for.
    seed:
        Matrix RNG seed (independent of the trace's timing seed).

    Returns
    -------
    list of ndarray
        One matrix per arrival — symmetric ``(m, m)`` for eigen
        entries, Gaussian ``(n, m)`` for SVD entries.  Generating up
        front keeps matrix construction out of the timed replay loop,
        and every setting replays the *same* matrices.
    """
    mats: List[np.ndarray] = []
    for i, a in enumerate(arrivals):
        if a.kind == "eigen":
            mats.append(make_symmetric_test_matrix(a.m, rng=(seed, i)))
        else:
            rng = np.random.default_rng((seed, i))
            mats.append(rng.normal(size=(a.n, a.m)))
    return mats


def replay(arrivals: Sequence[Arrival], matrices: Sequence[np.ndarray],
           setting: Setting, *, scenario: str, warmup_frac: float = 0.2,
           d: int = 2, tol: float = DEFAULT_TOL, timeout: float = 120.0,
           transport: Optional[str] = None,
           tracer: Optional[Any] = None) -> LoadResult:
    """Open-loop replay of one trace against one setting.

    Parameters
    ----------
    arrivals, matrices:
        The trace and its pre-generated matrices (same length).
        ``setting.pick`` is not applied: the trace is replayed as given.
    setting:
        The service configuration, and whether arrivals go through a
        gateway (see :class:`Setting`).  Its label tags the result.
    scenario:
        Report tag carried into the :class:`LoadResult`.
    warmup_frac:
        Leading fraction of the trace excluded from the latency
        percentiles (steady-state measurement; throughput still covers
        the whole run).
    d:
        Hypercube dimension of the eigen traffic class.
    tol:
        Convergence tolerance.
    timeout:
        Seconds to wait, after the last submission, for every
        submission to resolve before giving up.
    transport:
        Batch data plane handed to the service — ``None``/``"pickle"``
        for the pickle pipe, ``"shm"`` for the zero-copy
        shared-memory plane (see :mod:`repro.service.transport`).
    tracer:
        Explicit tracer handed to the service (e.g. a shared
        :class:`~repro.service.tracing.Tracer`, or
        :data:`~repro.service.tracing.NULL_TRACER` to pin the
        explicitly-disabled path); for a traced replay with the
        timeline returned, use :func:`replay_traced` instead.

    Returns
    -------
    LoadResult
        Post-warm-up p50/p99 latency over *solved* items, overall
        throughput, flush counters, per-item outcomes, the sampled
        backlog trace, the tuning outcome and, on gateway rows, the
        per-tenant accounting.
    """
    result, _ = _replay(arrivals, matrices, setting, scenario=scenario,
                        warmup_frac=warmup_frac, d=d, tol=tol,
                        timeout=timeout, transport=transport,
                        tracer=tracer)
    return result


def replay_traced(arrivals: Sequence[Arrival],
                  matrices: Sequence[np.ndarray], setting: Setting, *,
                  scenario: str, **kwargs: Any
                  ) -> Tuple[LoadResult, EventTimeline]:
    """:func:`replay` with per-request tracing on.

    Same parameters as :func:`replay` (``tracer`` aside); additionally
    returns the service's exported
    :class:`~repro.analysis.events.EventTimeline` (captured after the
    drain, so every lifecycle is complete).
    """
    result, timeline = _replay(arrivals, matrices, setting,
                               scenario=scenario, trace=True, **kwargs)
    assert timeline is not None
    return result, timeline


def _replay(arrivals: Sequence[Arrival], matrices: Sequence[np.ndarray],
            setting: Setting, *, scenario: str, warmup_frac: float = 0.2,
            d: int = 2, tol: float = DEFAULT_TOL, timeout: float = 120.0,
            transport: Optional[str] = None, trace: bool = False,
            tracer: Optional[Any] = None
            ) -> Tuple[LoadResult, Optional[EventTimeline]]:
    """The one open-loop driver: an asyncio task per arrival, started at
    its scheduled instant, submitting through the gateway or straight
    to the service."""
    if len(arrivals) != len(matrices):
        raise SimulationError(
            f"trace and matrices disagree: {len(arrivals)} arrivals, "
            f"{len(matrices)} matrices")
    n = len(arrivals)
    done_at: List[Optional[float]] = [None] * n
    outcomes: List[str] = ["failed"] * n
    backlog: List[int] = []
    with JacobiService(d=d, tol=tol, max_batch=setting.max_batch,
                       max_delay=setting.max_delay,
                       adaptive=setting.adaptive,
                       tuning_bounds=(ADAPTIVE_BOUNDS if setting.adaptive
                                      else None),
                       tuning_window=ADAPTIVE_WINDOW,
                       max_queue=setting.max_queue,
                       admission=setting.admission,
                       default_deadline=setting.default_deadline,
                       transport=transport,
                       trace=trace, tracer=tracer) as svc:
        gateway = (None if setting.gateway is None else
                   AsyncGateway(svc, GatewayConfig(tenants=setting.gateway)))

        async def _one(i: int, a: Arrival, A: np.ndarray) -> None:
            # Sample here, not where the task is created: a burst's
            # tasks are all created before the first of them runs, so
            # only this point sees the backlog its submit meets.
            st = svc.stats()
            backlog.append(st.queue_depth + st.inflight)
            try:
                if gateway is not None:
                    await gateway.submit(A, kind=a.kind,
                                         tenant=a.tenant or "default",
                                         deadline=a.deadline)
                else:
                    await asyncio.wrap_future(svc.submit(
                        A, kind=a.kind, deadline=a.deadline,
                        tenant=a.tenant))
                outcomes[i] = "solved"
            except QuotaExceeded:
                outcomes[i] = "throttled"
            except QueueFull:
                outcomes[i] = "rejected"
            except ShedError:
                outcomes[i] = "shed"
            except Exception:
                outcomes[i] = "failed"
            done_at[i] = time.monotonic()

        async def _drive() -> float:
            t0 = time.monotonic()
            tasks = []
            for i, (a, A) in enumerate(zip(arrivals, matrices)):
                lag = t0 + a.at - time.monotonic()
                if lag > 0:
                    await asyncio.sleep(lag)
                tasks.append(asyncio.ensure_future(_one(i, a, A)))
            try:
                await asyncio.wait_for(asyncio.gather(*tasks), timeout)
            except asyncio.TimeoutError:
                raise SimulationError(
                    f"{done_at.count(None)} of {n} submissions "
                    f"unresolved after {timeout:.0f}s") from None
            return t0

        t0 = asyncio.run(_drive())
        stats = svc.stats()
        gw_stats = gateway.stats() if gateway is not None else None
    # The timeline is read after close(): the dispatcher has drained,
    # so every admitted request's lifecycle has reached its terminal
    # event (a future resolves *before* its terminal event is emitted).
    timeline = svc.trace() if trace else None

    skip = int(np.ceil(warmup_frac * n)) if n > 1 else 0
    solved = [i for i, o in enumerate(outcomes) if o == "solved"]
    # all solved items falling in the warm-up window: measure them all
    measured = [i for i in solved if i >= skip] or solved
    latency_ms = {i: (done_at[i] - (t0 + arrivals[i].at)) * 1e3
                  for i in measured}
    tenants: Dict[str, Dict[str, Any]] = {}
    for tenant, ts in (gw_stats.tenants.items() if gw_stats else ()):
        sample = [latency_ms[i] for i in measured
                  if (arrivals[i].tenant or "default") == tenant]
        tenants[tenant] = {
            "submitted": ts.submitted, "throttled": ts.throttled,
            "rejected": ts.rejected, "shed": ts.shed,
            "completed": ts.completed, "failed": ts.failed,
            "cancelled": ts.cancelled, "measured": len(sample),
            "latencies_ms": [round(v, 3) for v in sample],
            **_percentiles(sample)}
    resolved = [t for t in done_at if t is not None]
    makespan = (max(resolved) - t0 - arrivals[0].at) if resolved else 0.0
    step = max(1, -(-len(backlog) // 64))  # downsample to <= 64 points
    return LoadResult(
        scenario=scenario, label=setting.label, items=n,
        measured=len(measured), **_percentiles(list(latency_ms.values())),
        throughput=(len(solved) / makespan if makespan > 0 else 0.0),
        flushes=dict(stats.flushes),
        mean_batch_size=stats.mean_batch_size,
        retunes=len(stats.tuning),
        final_limits={repr(k): v for k, v in stats.limits.items()},
        tuning=[{"t": round(ev.time - t0, 4), "key": repr(ev.key),
                 "batch": [ev.batch_from, ev.batch_to],
                 "delay": [ev.delay_from, ev.delay_to],
                 "reason": ev.reason}
                for ev in stats.tuning],
        solved=len(solved),
        rejected=outcomes.count("rejected") + outcomes.count("throttled"),
        shed=outcomes.count("shed"),
        peak_backlog=max(backlog, default=0), backlog=backlog[::step],
        outcomes=outcomes, tenants=tenants), timeline


def _percentiles(sample_ms: Sequence[float]) -> Dict[str, float]:
    """``p50_ms`` / ``p99_ms`` of a latency sample (0 when empty)."""
    if not len(sample_ms):
        return {"p50_ms": 0.0, "p99_ms": 0.0}
    return {"p50_ms": float(np.percentile(sample_ms, 50)),
            "p99_ms": float(np.percentile(sample_ms, 99))}


def _setting_dict(setting: Setting) -> Dict[str, Any]:
    """A setting's replayable fields, JSON-ready (``pick`` left out)."""
    out = asdict(setting)
    del out["pick"]
    return out


def compute_load_bench(scenario_names: Optional[Sequence[str]] = None,
                       items: Optional[int] = None,
                       seed: int = 0,
                       warmup_frac: float = 0.2,
                       trace_sink: Optional[List[Dict[str, Any]]] = None,
                       transport: Optional[str] = None,
                       ) -> List[LoadResult]:
    """Replay every chosen scenario against every row of its grid.

    Parameters
    ----------
    scenario_names:
        Scenario subset to run (``None`` = all of :data:`SCENARIOS`).
    items:
        Per-scenario trace-length override (``None`` = scenario
        defaults).
    seed:
        Seed for both trace timing and matrix content.
    warmup_frac:
        Warm-up fraction excluded from the latency percentiles.
    trace_sink:
        When a list is given, every replay runs with per-request
        tracing on and appends a trace record — a dict of
        ``scenario`` / ``label`` / ``settings`` /
        :class:`~repro.analysis.events.EventTimeline` — to it; this is
        what ``repro-jacobi load-bench --trace-out`` serialises (see
        :func:`trace_bundle_to_json`).  ``None`` (the default) traces
        nothing.
    transport:
        Batch data plane for every replayed service —
        ``None``/``"pickle"`` or ``"shm"`` (what ``repro-jacobi
        load-bench --transport`` passes for A/B runs; see
        :mod:`repro.service.transport`).

    Returns
    -------
    list of LoadResult
        Scenario-major, each scenario's rows in its
        :attr:`Scenario.settings` order — what
        :func:`render_load_bench` tabulates.
    """
    by_name = {s.name: s for s in SCENARIOS}
    if scenario_names is None:
        chosen = list(SCENARIOS)
    else:
        unknown = [name for name in scenario_names if name not in by_name]
        if unknown:
            raise SimulationError(
                f"unknown scenario(s) {unknown}; known: "
                f"{sorted(by_name)}")
        chosen = [by_name[name] for name in scenario_names]
    results: List[LoadResult] = []
    for scenario in chosen:
        arrivals = build_trace(scenario, items=items, seed=seed)
        load = list(zip(arrivals, build_matrices(arrivals, seed=seed)))
        for setting in scenario.settings:
            picked = setting.pick(load) if setting.pick else load
            result, timeline = _replay(
                [a for a, _ in picked], [A for _, A in picked], setting,
                scenario=scenario.name, warmup_frac=warmup_frac,
                transport=transport, trace=trace_sink is not None)
            if trace_sink is not None:
                trace_sink.append({
                    "scenario": scenario.name, "label": setting.label,
                    "settings": dict(_setting_dict(setting),
                                     warmup_frac=warmup_frac,
                                     transport=transport),
                    "timeline": timeline})
            results.append(result)
    return results


def render_load_bench(rows: Sequence[LoadResult]) -> str:
    """ASCII table of a load-bench run.

    Parameters
    ----------
    rows:
        The :func:`compute_load_bench` results.

    Returns
    -------
    str
        One table row per (scenario, setting) replay.
    """
    body = [[r.scenario, r.label, r.items,
             f"{r.solved}/{r.rejected}/{r.shed}",
             f"{r.p50_ms:,.1f}", f"{r.p99_ms:,.1f}",
             f"{r.throughput:,.1f}",
             f"{r.flushes.get('size', 0)}/{r.flushes.get('deadline', 0)}"
             f"/{r.flushes.get('forced', 0)}",
             f"{r.mean_batch_size:.1f}", r.peak_backlog, r.retunes]
            for r in rows]
    return render_table(
        ["scenario", "setting", "items", "ok/rej/shed", "p50 ms",
         "p99 ms", "solves/s", "flushes s/d/f", "mean b", "peak q",
         "retunes"],
        body, title="Micro-batching under live load: fixed vs adaptive")


def render_tenant_bench(rows: Sequence[LoadResult]) -> str:
    """ASCII table of the per-tenant accounting of ``tenants`` rows.

    Parameters
    ----------
    rows:
        A :func:`compute_load_bench` result list; rows without
        per-tenant data are skipped, so passing a mixed-scenario run
        is fine.

    Returns
    -------
    str
        One row per (setting, tenant), or an empty string when no row
        carried per-tenant data.
    """
    body = []
    for r in rows:
        for tenant in sorted(r.tenants):
            t = r.tenants[tenant]
            body.append([
                r.label, tenant, t["submitted"],
                f"{t['completed']}/{t['throttled']}"
                f"/{t['rejected']}/{t['shed']}",
                f"{t['p50_ms']:,.1f}", f"{t['p99_ms']:,.1f}"])
    if not body:
        return ""
    return render_table(
        ["setting", "tenant", "subs", "ok/thr/rej/shed", "p50 ms",
         "p99 ms"],
        body, title="Per-tenant QoS under a noisy neighbour")


def results_to_json(rows: Sequence[LoadResult], *, seed: int,
                    warmup_frac: float,
                    transport: Optional[str] = None) -> str:
    """Serialise a load-bench run for persistence.

    Parameters
    ----------
    rows:
        The :func:`compute_load_bench` results.
    seed, warmup_frac:
        The run parameters, recorded alongside the rows so a report is
        reproducible from its own header.
    transport:
        The batch data plane the run used (``None`` = the pickle
        default), recorded in the header for the same reason.

    Returns
    -------
    str
        Pretty-printed JSON (this is what the CI artifact contains).
        The ``settings`` header maps every scenario to its grid, each
        row's ``pick`` named by its function (``null`` = whole trace).
    """
    return json.dumps({
        "benchmark": "load-bench",
        "seed": seed,
        "warmup_frac": warmup_frac,
        "transport": transport,
        "settings": {
            scenario.name: [
                dict(_setting_dict(s),
                     pick=s.pick.__name__.lstrip("_") if s.pick else None)
                for s in scenario.settings]
            for scenario in SCENARIOS},
        "results": [asdict(r) for r in rows],
    }, indent=2)


#: Schema tag of a serialised trace bundle (one record per traced
#: replay) — what ``repro-jacobi load-bench --trace-out`` writes and
#: ``--replay`` reads back.
TRACE_BUNDLE_SCHEMA = "repro-trace-bundle/v1"


def arrivals_from_timeline(timeline: EventTimeline) -> List[Arrival]:
    """Reconstruct a replay's arrival trace from its event timeline.

    Every submission — admitted or rejected — emits a ``submit`` event
    carrying the traffic kind, the matrix shape and the raw deadline
    argument, which is exactly an :class:`Arrival`; offsets are taken
    relative to the first submission, so the reconstructed trace
    replays with the recorded inter-arrival gaps.

    Parameters
    ----------
    timeline:
        A traced service run (see
        :meth:`~repro.service.api.JacobiService.trace` or
        :func:`replay_traced`).

    Returns
    -------
    list of Arrival
        In submission order, one per recorded request.
    """
    subs = [ev for ev in timeline.events if ev.stage == "submit"]
    if not subs:
        raise SimulationError(
            "timeline holds no submit events; nothing to replay")
    base = subs[0].t
    out: List[Arrival] = []
    for ev in subs:
        if "n" not in ev.meta or "m" not in ev.meta:
            raise SimulationError(
                f"submit event for request {ev.request} lacks the "
                f"matrix shape (meta keys {sorted(ev.meta)})")
        out.append(Arrival(at=ev.t - base, kind=ev.kind or "eigen",
                           n=int(ev.meta["n"]), m=int(ev.meta["m"]),
                           deadline=ev.meta.get("deadline"),
                           tenant=ev.tenant))
    return out


#: Terminal lifecycle stage -> per-arrival outcome word (the
#: vocabulary of :attr:`LoadResult.outcomes`).
_TERMINAL_OUTCOME = {"resolved": "solved", "rejected": "rejected",
                     "shed": "shed", "failed": "failed"}


def outcomes_from_timeline(timeline: EventTimeline) -> List[str]:
    """Per-request outcomes of a traced run, in submission order.

    Parameters
    ----------
    timeline:
        A traced service run.

    Returns
    -------
    list of str
        ``"solved"`` / ``"rejected"`` / ``"shed"`` / ``"failed"`` per
        request — directly comparable to
        :attr:`LoadResult.outcomes`, which is how the record->replay
        determinism tests check equivalence.
    """
    outcome: Dict[int, str] = {}
    for ev in timeline.events:
        if ev.request is not None and ev.stage in _TERMINAL_OUTCOME:
            outcome[ev.request] = _TERMINAL_OUTCOME[ev.stage]
    return [outcome[req] for req in sorted(outcome)]


def trace_bundle_to_json(records: Sequence[Dict[str, Any]], *,
                         seed: int, warmup_frac: float) -> str:
    """Serialise a traced load-bench run for persistence.

    Parameters
    ----------
    records:
        The trace records collected through
        :func:`compute_load_bench`'s ``trace_sink``.
    seed, warmup_frac:
        The run parameters — the seed pins the matrices, so a replay
        of the bundle regenerates them identically.

    Returns
    -------
    str
        Pretty-printed JSON under :data:`TRACE_BUNDLE_SCHEMA` (the
        ``--trace-out`` artifact).
    """
    return json.dumps({
        "schema": TRACE_BUNDLE_SCHEMA,
        "seed": seed,
        "warmup_frac": warmup_frac,
        "traces": [{
            "scenario": r["scenario"],
            "label": r["label"],
            "settings": r["settings"],
            "timeline": (r["timeline"].to_dict()
                         if isinstance(r["timeline"], EventTimeline)
                         else r["timeline"]),
        } for r in records],
    }, indent=2)


#: The :class:`Setting` fields a trace record's ``settings`` dict
#: carries (the label is the record's own; ``pick`` is never recorded).
_SETTING_FIELDS = tuple(f.name for f in fields(Setting)
                        if f.name not in ("label", "pick"))
#: The driver keywords it may carry alongside; keys left unset fall
#: back to the :func:`replay` defaults, which are the same both times.
_DRIVER_KEYS = ("warmup_frac", "d", "tol", "transport")


def replay_recorded(bundle: Dict[str, Any], trace: bool = False
                    ) -> List[Tuple[Dict[str, Any], LoadResult,
                                    Optional[EventTimeline]]]:
    """Re-run every traced replay of a recorded bundle.

    Reconstructs each record's arrival trace from its timeline
    (:func:`arrivals_from_timeline`, tenants included), regenerates the
    matrices from the bundle's seed (matrix content depends only on
    ``(seed, index, shape)``, so the replay solves the *same* matrices
    the recording did), rebuilds the record's :class:`Setting` —
    gateway overrides included, so gateway rows replay through the
    gateway — and replays it.

    Parameters
    ----------
    bundle:
        A parsed :data:`TRACE_BUNDLE_SCHEMA` document (see
        :func:`trace_bundle_to_json`).
    trace:
        Trace the replays too — a re-recorded bundle of a replayed
        bundle must reproduce the per-request outcome sequences, which
        is the record->replay equivalence the tests pin.

    Returns
    -------
    list of (record, LoadResult, EventTimeline or None)
        One entry per bundle record, in bundle order.
    """
    if bundle.get("schema") != TRACE_BUNDLE_SCHEMA:
        raise SimulationError(
            f"not a trace bundle: schema "
            f"{bundle.get('schema')!r} != {TRACE_BUNDLE_SCHEMA!r}")
    seed = int(bundle["seed"])
    out: List[Tuple[Dict[str, Any], LoadResult,
                    Optional[EventTimeline]]] = []
    for record in bundle["traces"]:
        timeline = record["timeline"]
        if not isinstance(timeline, EventTimeline):
            timeline = EventTimeline.from_dict(timeline)
        arrivals = arrivals_from_timeline(timeline)
        matrices = build_matrices(arrivals, seed=seed)
        recorded = record["settings"]
        setting = Setting(label=record["label"],
                          **{k: recorded[k] for k in _SETTING_FIELDS
                             if k in recorded})
        result, replayed = _replay(
            arrivals, matrices, setting, scenario=record["scenario"],
            trace=trace,
            **{k: recorded[k] for k in _DRIVER_KEYS if k in recorded})
        out.append((record, result, replayed))
    return out
