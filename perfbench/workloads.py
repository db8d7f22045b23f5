"""The three workloads: their specs, seeded inputs and the stack they run on.

Every input is made here from the workload seed with NumPy's own
generator; the program under test receives only the finished matrices.
Nothing here depends on ``repro`` at import time, so the set-up probe can
start its clock before ``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

TENANTS = ("tenant0", "tenant1", "tenant2", "tenant3")


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what is sent, how, and why it is in the set."""

    name: str
    loop: str
    shapes: Tuple[Tuple[str, int, int], ...]
    why: str
    rate: Optional[float] = None
    clients: Optional[int] = None
    service: Optional[Dict[str, Any]] = None
    ordering: Tuple[str, int] = ("degree4", 2)

    def record(self, seed: int) -> Dict[str, Any]:
        """The spec as printed with every result."""
        return {"workload": self.name, "seed": seed, "loop": self.loop,
                "shapes": [f"{kind} {n}x{m}" for kind, n, m in self.shapes],
                "rate_per_s": self.rate, "clients": self.clients,
                "ordering": list(self.ordering), "service": self.service,
                "why": self.why}


WORKLOADS: Dict[str, Workload] = {
    "ensemble": Workload(
        name="ensemble", loop="closed, 1 caller, in-process",
        shapes=(("eigen", 64, 64),), ordering=("degree4", 3),
        why=("engine rotation planes do almost all the work; service, "
             "pool, transport and gateway do none")),
    "stream": Workload(
        name="stream", loop="open, Poisson arrivals", rate=150.0,
        shapes=(("eigen", 16, 16), ("svd", 24, 12)),
        service={"workers": 2, "max_batch": 16, "max_delay": 0.005},
        why=("per-request costs dominate: gateway, submit, deadline "
             "flushes of ~1.4 items, pickle IPC, batch-1 engine rounds")),
    "saturate": Workload(
        name="saturate", loop="closed, 32 asyncio clients", clients=32,
        shapes=(("eigen", 32, 32),),
        service={"workers": 2, "transport": "shm", "max_batch": 16,
                 "max_delay": 0.05},
        why=("full size-triggered flushes through the shm ring with both "
             "workers busy: served capacity")),
}

#: Matrices per ensemble batch.
ENSEMBLE_BATCH = 32


def symmetric(rng: np.random.Generator, m: int) -> np.ndarray:
    """A random symmetric ``(m, m)`` matrix with normal entries."""
    X = rng.standard_normal((m, m))
    return (X + X.T) / 2.0


def general(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """A random ``(n, m)`` matrix with normal entries."""
    return rng.standard_normal((n, m))


def ensemble_batch(seed: int, index: int) -> np.ndarray:
    """Batch ``index`` of the ensemble workload: ``(32, 64, 64)``."""
    rng = np.random.default_rng([seed, 0, index])
    return np.stack([symmetric(rng, 64) for _ in range(ENSEMBLE_BATCH)])


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due, what and for whom."""

    offset: float
    kind: str
    tenant: str
    matrix: np.ndarray


def stream_plan(seed: int, seconds: float, stream: int = 1
                ) -> List[Arrival]:
    """Poisson arrivals at the stream rate over ``seconds``, conditioned
    on their count: exactly ``rate * seconds`` requests at sorted uniform
    times, so that every seed offers the same load and only the
    clustering differs.  Each is a 16x16 eigen or a 24x12 SVD request
    with equal odds, from one of the four tenants.  ``stream`` separates
    independent plans of one seed (warm-up, untraced and traced
    phases)."""
    rng = np.random.default_rng([seed, stream])
    count = int(round(WORKLOADS["stream"].rate * seconds))
    plan: List[Arrival] = []
    for t in np.sort(rng.uniform(0.0, seconds, size=count)):
        if rng.random() < 0.5:
            kind, matrix = "eigen", symmetric(rng, 16)
        else:
            kind, matrix = "svd", general(rng, 24, 12)
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        plan.append(Arrival(float(t), kind, tenant, matrix))
    return plan


def client_rng(seed: int, client: int, stream: int = 1
               ) -> np.random.Generator:
    """The input stream of one saturate client: request ``k`` of client
    ``c`` is the ``k``-th draw, so inputs can be made again to check."""
    return np.random.default_rng([seed, stream, client])


def build_service(name: str, trace: bool = False):
    """The workload's :class:`repro.JacobiService` (traced or not)."""
    from repro import JacobiService

    kwargs = dict(WORKLOADS[name].service)
    if trace:
        kwargs.update(trace=True, trace_capacity=1 << 20)
    return JacobiService(**kwargs)


def build_engine(cache=None):
    """The ensemble workload's batched engine."""
    from repro import BatchedOneSidedJacobi, get_ordering

    return BatchedOneSidedJacobi(
        get_ordering(*WORKLOADS["ensemble"].ordering), cache=cache)
