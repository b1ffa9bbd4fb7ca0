"""In-memory spans for the traced benchmark run.

The harness records a span around every call it makes into a layer (name,
start, end, the span that caused it, and one id per request), merges the
span trees the program already produces through its public tracing
parameter, and writes everything out as JSON lines when the workload ends.
A layer's **self time** is its span's duration minus the part of that
interval its child spans cover -- the number the per-layer ledger reports.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed interval: ``[start, end)`` on the ``perf_counter`` clock."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high)`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class TraceLog:
    """Spans of one workload run, kept in memory until :meth:`write`.

    ``list.append`` and ``next(count)`` are atomic under the interpreter
    lock, so client threads record spans without further locking.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def new_request(self) -> int:
        """A fresh request id (shared by every span of one request)."""
        return next(self._requests)

    def add(
        self, name: str, start: float, end: float, request: int, parent: Optional[int] = None
    ) -> int:
        """Record a finished span; returns its id."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, request))
        return span_id

    @contextmanager
    def span(self, name: str, request: int, parent: Optional[int] = None) -> Iterator[Span]:
        """Time the enclosed block; yields the span, whose end is set on exit."""
        start = time.perf_counter()
        span = Span(next(self._ids), name, start, start, parent, request)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.spans.append(span)

    def timed(
        self, name: str, call: Callable[[], object], repeat: int = 1
    ) -> Tuple[float, object]:
        """Call ``call`` ``repeat`` times, one span each.

        Returns the mean seconds and the last call's result.
        """
        total = 0.0
        result = None
        for _ in range(repeat):
            with self.span(name, self.new_request()) as span:
                result = call()
            total += span.duration
        return total / repeat, result

    def adopt_program_trace(
        self, record: Mapping[str, object], root_start: float, request: int, parent: int
    ) -> None:
        """Merge a trace record of ``repro.obs.trace`` under ``parent``.

        The program links every kernel stage to the request root, although
        ``kernel.scores`` runs *inside* ``kernel.traverse``; a sibling whose
        interval lies within an earlier sibling's is re-parented under it,
        so traverse's self time excludes the scoring pass.
        """

        def walk(nodes: Sequence[Mapping[str, object]], parent_id: int) -> None:
            placed: List[Tuple[float, float, int]] = []
            for node in sorted(nodes, key=lambda n: n["start_offset_seconds"]):
                start = root_start + float(node["start_offset_seconds"])
                end = start + float(node["duration_seconds"])
                owner = parent_id
                for other_start, other_end, other_id in reversed(placed):
                    if other_start <= start and end <= other_end:
                        owner = other_id
                        break
                span_id = self.add(str(node["name"]), start, end, request, owner)
                placed.append((start, end, span_id))
                walk(node.get("children", ()), span_id)

        for root in record["spans"]:
            walk(root.get("children", ()), parent)

    def add_mean_request(
        self, chain: Sequence[Tuple[str, float, Sequence[Tuple[str, float]]]]
    ) -> None:
        """Record one synthetic "mean request" from per-stage mean durations.

        The daemon exposes stage latencies only as histograms (``GET
        /metrics``), not as span trees.  ``chain`` lists nested stages
        outermost first as ``(name, mean_seconds, leaves)``; each stage
        contains the next one plus its ``leaves`` laid end to end, so the
        self-time rule applies to daemon stages exactly as to harness spans.
        """
        request = self.new_request()
        parent: Optional[int] = None
        cursor = 0.0
        for name, seconds, leaves in chain:
            parent = self.add(name, cursor, cursor + seconds, request, parent)
            for leaf_name, leaf_seconds in leaves:
                self.add(leaf_name, cursor, cursor + leaf_seconds, request, parent)
                cursor += leaf_seconds

    def self_times(self) -> Dict[int, float]:
        """Self time in seconds of every span, keyed by span id."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return {
            span.span_id: span.duration
            - covered(children.get(span.span_id, ()), span.start, span.end)
            for span in self.spans
        }

    def mean_self_ms(self) -> Dict[str, float]:
        """Mean self time in milliseconds per span name."""
        self_times = self.self_times()
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            totals.setdefault(span.name, []).append(self_times[span.span_id])
        return {name: sum(values) / len(values) * 1e3 for name, values in totals.items()}

    def write(self, path: Path) -> None:
        """Write one JSON line per span (with its self time) to ``path``."""
        self_times = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = asdict(span)
                row["self"] = self_times[span.span_id]
                handle.write(json.dumps(row) + "\n")
