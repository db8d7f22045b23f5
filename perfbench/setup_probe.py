"""Set-up probe: one fresh process, timed from before ``import repro`` to
its first verified result (ensemble: one batch; stream and saturate: two
full batches at once, every result verified and both pool workers up).

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``; prints one
JSON line ``{"setup_s": ..., "ok": ...}``.  ``run.py`` starts several of
these one after another and reports the median.  The clock starts
before anything but the standard library is imported; the service is
closed after the clock stops.
"""

import time

T0 = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import asyncio

    import checks
    import procstat
    import workloads as wl

    if name == "ensemble":
        batch = wl.ensemble_batch(seed, 0)
        res = wl.build_engine().solve(batch)
        ok = all(res.converged[k] and checks.eigen_ok(
            A, res.eigenvalues[k], res.eigenvectors[k])
            for k, A in enumerate(batch))
        setup_s = time.monotonic() - T0
    else:
        from repro.service import AsyncGateway

        import drive

        # Two full batches at once: two flushes in flight, so the pool
        # spawns both of its workers before the clock stops.
        spec = wl.WORKLOADS[name]
        rng = wl.client_rng(seed, 0, stream=3)
        requests = []
        for k in range(2 * spec.service["max_batch"]):
            kind, n, m = spec.shapes[k % len(spec.shapes)]
            requests.append((kind, wl.symmetric(rng, m) if kind == "eigen"
                             else wl.general(rng, n, m)))
        service = wl.build_service(name)
        try:
            phase = drive.Phase()
            asyncio.run(drive.burst(AsyncGateway(service), requests, phase))
            setup_s = time.monotonic() - T0
            ok = (not phase.failures
                  and len(procstat.pool_workers()) == service.workers)
        finally:
            service.close()
    procstat.reap()
    print(json.dumps({"setup_s": setup_s, "ok": bool(ok)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
