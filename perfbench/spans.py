"""In-memory spans for the traced run, and the self-time table built
from them.

A span is ``(id, name, start, end, parent, request)`` with times on
``time.monotonic``.  The layer of a span is its name up to the first
dot.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]

#: Spans that wrap a whole request on behalf of another layer; the
#: coverage check asks whether the stages *inside* them explain the
#: latency, so they do not count as covering it.
CONTAINERS = frozenset({"gateway.submit"})


class SpanRecorder:
    """Collects spans in memory; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            request: Optional[int] = None) -> int:
        """Record one span and return its id (for children)."""
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, parent, request))
        return sid

    def dump(self, path: str) -> None:
        """Write every span as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "request"],
                       "spans": self.spans}, fh)

    # ------------------------------------------------------------------
    def _children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span[4] is not None:
                kids.setdefault(span[4], []).append(span)
        return kids

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total and self seconds."""
        kids = self._children()
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, _, _ in self.spans:
            covered = _union([(max(s[2], start), min(s[3], end))
                              for s in kids.get(sid, ())])
            row = out.setdefault(name.split(".")[0],
                                 {"spans": 0, "total": 0.0, "self": 0.0})
            row["spans"] += 1
            row["total"] += end - start
            row["self"] += max(0.0, end - start - covered)
        return out

    def coverage(self, root: str = "request") -> List[Tuple[float, float]]:
        """Per request: ``(latency, covered)`` seconds, where covered is
        the part of the root span that the stage spans under it cover
        (containers excluded, their children included)."""
        kids = self._children()
        out = []
        for sid, name, start, end, _, _ in self.spans:
            if name != root:
                continue
            stages: List[Tuple[float, float]] = []
            todo = list(kids.get(sid, ()))
            while todo:
                span = todo.pop()
                todo.extend(kids.get(span[0], ()))
                if span[1] not in CONTAINERS:
                    stages.append((max(span[2], start), min(span[3], end)))
            out.append((end - start, _union(stages)))
        return out


def _union(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def render_self_times(table: Dict[str, Dict[str, float]],
                      requests: int) -> str:
    """The per-layer self-time table, largest self time first."""
    total_self = sum(row["self"] for row in table.values()) or 1.0
    lines = [f"{'layer':<10} {'spans':>7} {'total ms':>11} "
             f"{'self ms':>11} {'self ms/req':>12} {'share':>7}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{layer:<10} {int(row['spans']):>7} {row['total'] * 1e3:>11.1f} "
            f"{row['self'] * 1e3:>11.1f} "
            f"{row['self'] * 1e3 / max(1, requests):>12.4f} "
            f"{row['self'] / total_self:>7.1%}")
    return "\n".join(lines)
