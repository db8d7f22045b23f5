"""Process accounting and the environment record, read from outside the
program under test.

CPU time and peak resident memory cover this process *and every process
it started* (the service's pool workers and multiprocessing's resource
tracker), read from ``/proc`` so that no counter inside ``repro`` is
needed.  Linux only.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (field 3
    onwards), or ``[]`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return []
    return text.rsplit(")", 1)[1].split()


def descendants(root: int = 0) -> List[int]:
    """Pids of every live process below ``root`` (default: this one)."""
    root = root or os.getpid()
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    todo = [root]
    while todo:
        kids = children.get(todo.pop(), [])
        found.extend(kids)
        todo.extend(kids)
    return found


def pool_workers() -> List[int]:
    """Pids of live descendants other than multiprocessing's resource
    tracker: the pool's worker processes."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker._pid
    return [pid for pid in descendants() if pid != tracker]


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process (all threads) and
    of its live descendants."""
    total = time.process_time()
    for pid in descendants():
        fields = _stat_fields(pid)
        if fields:
            total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the peaks of its live
    descendants, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024.0


def reap() -> None:
    """Stop multiprocessing's resource tracker (started by a process pool
    or shared memory) and wait for it, then check that no child of this
    process is left running; pools are shut down with their services."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    left = descendants()
    if left:
        raise SystemExit(f"processes still running: {left}")


def environment() -> Dict[str, object]:
    """Cores, interpreter, NumPy and BLAS builds, and the thread
    variables that change how BLAS runs."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cores_online": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in _THREAD_VARS},
    }
