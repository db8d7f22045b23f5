"""Result checks: every answer against LAPACK, a seeded sample bit for bit
against the sequential solvers, and the service and gateway ledgers.

The solvers stop at a scaled column orthogonality of 1e-9.  That leaves
eigenvalues and singular values exact to rounding (within 1e-12 of the
matrix scale on these sizes) and the vectors orthonormal to rounding,
but eigenvector residuals only as small as the stopping test makes
them: up to 2.5e-7 of the matrix scale on 32x32 inputs.  ``TOL`` and
``RESIDUAL_TOL`` sit far above those and far below any wrong answer.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

TOL = 1e-8
RESIDUAL_TOL = 1e-5


def eigen_ok(A: np.ndarray, lam: np.ndarray, V: np.ndarray,
             ref: Optional[np.ndarray] = None) -> bool:
    """``(lam, V)`` is the eigendecomposition of symmetric ``A``:
    eigenvalues match ``np.linalg.eigh`` (``ref`` when given), the
    residual is small and ``V`` is orthonormal."""
    if ref is None:
        ref = np.linalg.eigh(A)[0]
    scale = max(1.0, float(np.abs(ref).max()))
    m = A.shape[0]
    return (lam.shape == (m,) and V.shape == (m, m)
            and bool(np.all(np.abs(lam - ref) <= TOL * scale))
            and residual_ok(A, lam, V, scale))


def residual_ok(A: np.ndarray, lam: np.ndarray, V: np.ndarray,
                scale: float) -> bool:
    """``A V = V diag(lam)`` to ``RESIDUAL_TOL`` and ``V^T V = I`` to
    ``TOL``."""
    res = np.abs(A @ V - V * lam).max()
    orth = np.abs(V.T @ V - np.eye(V.shape[1])).max()
    return bool(res <= RESIDUAL_TOL * scale and orth <= TOL)


def svd_ok(A: np.ndarray, U: np.ndarray, S: np.ndarray,
           Vt: np.ndarray) -> bool:
    """``(U, S, Vt)`` is the thin SVD of ``A``: singular values match
    ``np.linalg.svd`` and the factors reconstruct ``A``."""
    ref = np.linalg.svd(A, compute_uv=False)
    n, m = A.shape
    if U.shape != (n, m) or S.shape != (m,) or Vt.shape != (m, m):
        return False
    scale = max(1.0, float(ref[0]))
    return bool(np.all(np.abs(S - ref) <= TOL * scale)
                and np.abs((U * S) @ Vt - A).max() <= RESIDUAL_TOL * scale
                and np.abs(U.T @ U - np.eye(m)).max() <= TOL
                and np.abs(Vt @ Vt.T - np.eye(m)).max() <= TOL)


def same_bits(got: Any, want: Any, fields: List[str]) -> bool:
    """Every named field of two results is equal bit for bit."""
    return all(np.array_equal(np.asarray(getattr(got, f)),
                              np.asarray(getattr(want, f)))
               for f in fields)


def sequential_eigen(A: np.ndarray, ordering: str, d: int):
    """The sequential reference eigensolve the engine must match."""
    from repro import ParallelOneSidedJacobi, get_ordering

    return ParallelOneSidedJacobi(get_ordering(ordering, d)).solve(A)


def sequential_svd(A: np.ndarray):
    """The sequential reference SVD the service must match."""
    from repro.jacobi import onesided_svd

    return onesided_svd(A)


EIGEN_FIELDS = ["eigenvalues", "eigenvectors", "sweeps", "converged"]
SVD_FIELDS = ["U", "S", "Vt", "sweeps", "converged"]


def ledger_problems(service_stats: Any, gateway_stats: Any,
                    completed: int) -> List[str]:
    """Broken ledger identities: the service's ``accounted ==
    submitted`` and, through the gateway, every tenant's."""
    problems: List[str] = []
    s = service_stats
    if s.accounted != s.submitted:
        problems.append(f"service accounted {s.accounted} != submitted "
                        f"{s.submitted}")
    if s.queue_depth or s.inflight:
        problems.append(f"service left {s.queue_depth} queued, "
                        f"{s.inflight} in flight")
    for tenant, t in gateway_stats.tenants.items():
        if t.accounted != t.submitted:
            problems.append(f"gateway {tenant}: accounted {t.accounted} "
                            f"!= submitted {t.submitted}")
    total = gateway_stats.total
    if total.completed != completed:
        problems.append(f"gateway completed {total.completed} != "
                        f"{completed} results received")
    if total.submitted != s.submitted:
        problems.append(f"gateway submitted {total.submitted} != "
                        f"service submitted {s.submitted}")
    return problems
