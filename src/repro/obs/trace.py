"""Lightweight spans and traces for the query path.

Design constraints (see ``docs/OBSERVABILITY.md``):

- **Explicit context, no globals.**  A sampled request owns an
  :class:`ActiveTrace`; instrumented code receives a :class:`SpanContext`
  (trace + parent span) as an ordinary ``trace=None`` keyword argument and
  does nothing when it is ``None``.  Nothing is stashed in thread-locals,
  so coalesced batches -- where one dispatcher thread works on behalf of
  many request threads -- attribute every span to the right trace.
- **Zero cost when disabled.**  :meth:`Tracer.start_trace` returns
  ``None`` without taking a lock when the sample rate is ``0.0``; every
  instrumentation point downstream is a single ``is None`` check.
- **Monotonic clock.**  Span timings use :func:`time.perf_counter`.
  Worker processes have their *own* monotonic clock, so worker spans
  travel over the wire as offsets relative to the worker's root span and
  are re-based onto the frontend span that issued the request
  (:meth:`ActiveTrace.attach_remote`).
- **Bounded memory.**  Finished traces land in a ``deque(maxlen=...)``
  ring, a fixed-size slowest-N heap, and a bounded errored-trace ring --
  the slow-query log.  Nothing grows with traffic.

>>> tracer = Tracer(sample_rate=1.0, seed=7)
>>> trace = tracer.start_trace("request.topk")
>>> span = trace.begin("kernel.traverse")
>>> _ = span.end(nodes_visited=12)
>>> record = tracer.finish(trace, status=200)
>>> [s["name"] for s in record["spans"][0]["children"]]
['kernel.traverse']
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "ActiveTrace",
    "LatencyHistogram",
    "Span",
    "SpanContext",
    "Tracer",
    "format_trace",
    "histogram_percentile",
    "snapshot_bucket_counts",
]

#: Histogram bucket upper edges, in **seconds**: roughly logarithmic from
#: 0.5 ms (a cache hit) to 5 s, with a final implicit ``+inf`` bucket.  One
#: set of edges, one unit end to end, for every :class:`LatencyHistogram`.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    5.0,
)


class LatencyHistogram:
    """A fixed-bucket latency histogram with count/sum/max aggregates.

    The one histogram type: per-endpoint request latencies
    (:class:`repro.server.metrics.ServerMetrics`), the tracer's per-stage
    span durations and the scenario harness's client-side recorder all
    aggregate into it.  Not thread-safe on its own; its owners serialise
    access.

    >>> histogram = LatencyHistogram()
    >>> histogram.observe(0.004)          # 4 ms
    >>> histogram.observe(0.030)          # 30 ms
    >>> histogram.count, histogram.bucket_counts[3]   # 4 ms falls in <=5 ms
    (2, 1)
    """

    __slots__ = ("bucket_counts", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        #: One count per edge in :data:`LATENCY_BUCKETS` plus the final
        #: unbounded bucket.
        self.bucket_counts: List[int] = [0] * (len(LATENCY_BUCKETS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation, in seconds."""
        self.bucket_counts[bisect_left(LATENCY_BUCKETS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        """Average observed latency (0 when nothing was observed)."""
        if not self.count:
            return 0.0
        return self.total_seconds / self.count

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict copy suitable for JSON serialisation.

        Buckets are keyed by their upper edge in seconds (``"le_<edge>"``;
        the unbounded bucket is ``"le_inf"``) so the output is
        self-describing.
        """
        buckets = {
            f"le_{edge:g}": count
            for edge, count in zip(LATENCY_BUCKETS, self.bucket_counts)
        }
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "max_seconds": self.max_seconds,
            "buckets": buckets,
        }


def snapshot_bucket_counts(snapshot: Dict[str, object]) -> List[int]:
    """The per-bucket counts of a :meth:`LatencyHistogram.snapshot` dict.

    The inverse of the snapshot's ``le_*`` keying: one count per edge of
    :data:`LATENCY_BUCKETS` plus the overflow slot -- the list
    :func:`histogram_percentile` and the exposition renderer take.  A
    missing key counts 0, so ``{}`` reads as an empty histogram.

    >>> histogram = LatencyHistogram()
    >>> histogram.observe(0.004)
    >>> snapshot_bucket_counts(histogram.snapshot()) == histogram.bucket_counts
    True
    """
    buckets = snapshot.get("buckets", {})
    counts = [int(buckets.get(f"le_{edge:g}", 0)) for edge in LATENCY_BUCKETS]
    counts.append(int(buckets.get("le_inf", 0)))
    return counts


#: JSON-safe attribute value types; anything else is stored as ``repr()``.
_SCALARS = (str, int, float, bool, type(None))


def _new_id() -> str:
    """Return a random 12-hex-digit span/trace id."""
    return os.urandom(6).hex()


class Span:
    """One timed operation inside a trace.

    Spans are mutable, slot-based, and cheap: creation records a
    :func:`time.perf_counter` start; :meth:`end` records the duration and
    merges final attributes.  Spans never reference their children -- the
    tree is reassembled from ``parent_id`` links when the trace finishes.
    """

    __slots__ = ("name", "span_id", "parent_id", "process", "start", "duration", "attributes")

    def __init__(
        self,
        name: str,
        parent_id: Optional[str] = None,
        process: str = "server",
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.process = process
        self.start = time.perf_counter()
        self.duration: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}

    def end(self, **attributes: object) -> "Span":
        """Close the span (idempotent) and merge ``attributes``; returns self."""
        if self.duration is None:
            self.duration = time.perf_counter() - self.start
        if attributes:
            self.attributes.update(attributes)
        return self


class SpanContext:
    """A (trace, parent span) pair threaded through instrumented code.

    This is the object engine/kernel code receives as ``trace=``.  It
    pins which span new child spans hang under, so one trace can be in
    several stages at once (e.g. a scattered batch).
    """

    __slots__ = ("trace", "parent")

    def __init__(self, trace: "ActiveTrace", parent: Span) -> None:
        self.trace = trace
        self.parent = parent

    def begin(self, name: str, **attributes: object) -> Span:
        """Open a child span under this context's parent."""
        return self.trace.begin(name, parent=self.parent, **attributes)

    def under(self, span: Span) -> "SpanContext":
        """Return a new context parented at ``span`` (same trace)."""
        return SpanContext(self.trace, span)


class ActiveTrace:
    """An in-flight trace: a root span plus a flat list of spans.

    Appending to the span list is GIL-atomic, so concurrent worker threads
    of one scattered request may :meth:`begin`/:meth:`~Span.end` spans
    without extra locking.  Worker processes build *standalone* traces
    (no tracer) with ``trace_id``/``parent_id`` received over the wire and
    ship their spans back via :meth:`export_spans`.
    """

    __slots__ = ("trace_id", "process", "root", "spans")

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        process: str = "server",
    ) -> None:
        self.trace_id = trace_id if trace_id else _new_id()
        self.process = process
        self.root = Span(name, parent_id=parent_id, process=process)
        self.spans: List[Span] = [self.root]

    def begin(self, name: str, parent: Optional[Span] = None, **attributes: object) -> Span:
        """Open a span under ``parent`` (the root when omitted)."""
        anchor = parent if parent is not None else self.root
        span = Span(name, parent_id=anchor.span_id, process=self.process, attributes=attributes)
        self.spans.append(span)
        return span

    def context(self, parent: Optional[Span] = None) -> SpanContext:
        """Return a :class:`SpanContext` parented at ``parent`` (default root)."""
        return SpanContext(self, parent if parent is not None else self.root)

    # ------------------------------------------------------------------
    # Cross-process stitching
    # ------------------------------------------------------------------
    def export_spans(self) -> List[Dict[str, object]]:
        """Serialize all spans with starts as offsets from the root span.

        Monotonic clocks are per-process, so absolute ``perf_counter``
        values are meaningless to the peer; offsets relative to this
        trace's root are re-based by :meth:`attach_remote` on the other
        side.  Ends the root first so every offset is final.
        """
        self.root.end()
        base = self.root.start
        exported = []
        for span in self.spans:
            if span.duration is None:
                span.end()
            exported.append(
                {
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "process": span.process,
                    "offset": span.start - base,
                    "duration": span.duration,
                    "attributes": _safe_attributes(span.attributes),
                }
            )
        return exported

    def attach_remote(self, exported: Iterable[Dict[str, object]], anchor: Span) -> None:
        """Stitch spans exported by a peer process into this trace.

        Each remote span's offset is re-based onto ``anchor``'s start (the
        local span that covers the remote round-trip), so remote durations
        nest correctly inside local wall-clock time.  Remote parent links
        are preserved: the peer's root span already carries the local
        anchor span's id as its ``parent_id``.
        """
        for entry in exported:
            if not isinstance(entry, dict):
                continue
            span = Span.__new__(Span)
            span.name = str(entry.get("name", "remote"))
            span.span_id = str(entry.get("span_id") or _new_id())
            parent = entry.get("parent_id")
            span.parent_id = str(parent) if parent is not None else anchor.span_id
            span.process = str(entry.get("process", "worker"))
            span.start = anchor.start + float(entry.get("offset", 0.0))
            span.duration = float(entry.get("duration", 0.0))
            attributes = entry.get("attributes")
            span.attributes = dict(attributes) if isinstance(attributes, dict) else {}
            self.spans.append(span)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self, status: Optional[int] = None, error: bool = False) -> Dict[str, object]:
        """End the root span and return the immutable trace record.

        The record is a plain JSON-safe dict -- ``{"trace_id", "name",
        "process", "unix_time", "duration_seconds", "status", "error",
        "spans"}`` with ``spans`` a nested tree -- suitable for the slow
        log, ``/v1/debug/slow``, and ``repro trace``.
        """
        self.root.end()
        if status is not None:
            self.root.attributes.setdefault("status", status)
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "process": self.process,
            "unix_time": time.time(),
            "duration_seconds": self.root.duration,
            "status": status,
            "error": bool(error),
            "spans": _build_tree(self.spans, self.root),
        }


def _safe_attributes(attributes: Dict[str, object]) -> Dict[str, object]:
    """Coerce attribute values to JSON-safe scalars (repr of anything else)."""
    return {
        key: value if isinstance(value, _SCALARS) else repr(value)
        for key, value in attributes.items()
    }


def _build_tree(spans: Sequence[Span], root: Span) -> List[Dict[str, object]]:
    """Assemble the nested span tree from flat parent links.

    Spans whose parent is unknown (e.g. their parent was evicted, which
    cannot happen today but keeps the function total) hang off the root.
    Children keep creation order, which is start order within one process.
    """
    base = root.start
    nodes: Dict[str, Dict[str, object]] = {}
    for span in spans:
        nodes[span.span_id] = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "process": span.process,
            "start_offset_seconds": span.start - base,
            "duration_seconds": span.duration if span.duration is not None else 0.0,
            "attributes": _safe_attributes(span.attributes),
            "children": [],
        }
    roots: List[Dict[str, object]] = []
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        elif span is root:
            roots.append(node)
        else:
            nodes[root.span_id]["children"].append(node)
    return roots


def histogram_percentile(bucket_counts: Sequence[int], quantile: float) -> Optional[float]:
    """Interpolate a percentile (in seconds) from histogram bucket counts.

    ``bucket_counts`` is aligned with :data:`LATENCY_BUCKETS` plus the final
    unbounded bucket -- the shape every histogram in this repository shares
    (every :class:`LatencyHistogram`: per endpoint, per traced stage, and
    the scenario harness's client-side recorder).  Counts
    may be lifetime totals or deltas between two snapshots.

    Returns ``None`` when no observations landed, and ``inf`` when the
    percentile falls in the unbounded bucket (callers render it as
    "> last edge").  Linear interpolation inside the bucket -- the standard
    Prometheus ``histogram_quantile`` estimate.

    >>> counts = [0] * (len(LATENCY_BUCKETS) + 1)
    >>> histogram_percentile(counts, 0.5) is None
    True
    >>> counts[3] = 10                      # ten observations in (2, 5] ms
    >>> round(histogram_percentile(counts, 0.5) * 1000.0, 2)
    3.5
    """
    total = sum(bucket_counts)
    if total <= 0:
        return None
    rank = quantile * total
    cumulative = 0.0
    for index, count in enumerate(bucket_counts):
        if not count:
            continue
        if cumulative + count >= rank:
            if index >= len(LATENCY_BUCKETS):
                return float("inf")
            lower = LATENCY_BUCKETS[index - 1] if index else 0.0
            upper = LATENCY_BUCKETS[index]
            return lower + (upper - lower) * ((rank - cumulative) / count)
        cumulative += count
    return float("inf")  # pragma: no cover - unreachable (total > 0)


class Tracer:
    """Sampling decisions plus the bounded trace ring and slow-query log.

    One tracer per server.  ``sample_rate`` is the probability a request
    is traced; ``0.0`` (the default) makes :meth:`start_trace` a lock-free
    ``return None`` so the instrumented path costs one ``is None`` check.
    Finished traces are stored three ways, all bounded:

    - ``ring`` -- the most recent ``ring_capacity`` traces;
    - ``slow`` -- the ``slow_capacity`` slowest traces (a min-heap);
    - ``errored`` -- the most recent ``slow_capacity`` errored traces.

    >>> tracer = Tracer(sample_rate=0.0)
    >>> tracer.start_trace("request.topk") is None
    True
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        ring_capacity: int = 256,
        slow_capacity: int = 16,
        seed: Optional[int] = None,
    ) -> None:
        rate = float(sample_rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate!r}")
        if ring_capacity < 1 or slow_capacity < 1:
            raise ValueError("ring_capacity and slow_capacity must be >= 1")
        self.sample_rate = rate
        self.slow_capacity = int(slow_capacity)
        self._random = random.Random(seed)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=int(ring_capacity))
        self._slow: List[Tuple[float, int, Dict[str, object]]] = []
        self._errored: deque = deque(maxlen=int(slow_capacity))
        self._sequence = itertools.count()
        self._stages: Dict[str, LatencyHistogram] = {}
        self._started = 0
        self._recorded = 0

    @property
    def enabled(self) -> bool:
        """True when the sample rate can ever admit a trace."""
        return self.sample_rate > 0.0

    def start_trace(self, name: str, process: str = "server") -> Optional[ActiveTrace]:
        """Make the sampling decision; return a trace or ``None``.

        The decision is made exactly once, here at the edge -- downstream
        layers (including worker processes) inherit it by receiving either
        a context or ``None``.
        """
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        with self._lock:
            if rate < 1.0 and self._random.random() >= rate:
                return None
            self._started += 1
        return ActiveTrace(name, process=process)

    def finish(
        self,
        trace: ActiveTrace,
        status: Optional[int] = None,
        error: bool = False,
    ) -> Dict[str, object]:
        """Finalize ``trace``, aggregate its stages, store it; return the record."""
        record = trace.finish(status=status, error=error)
        duration = float(record["duration_seconds"] or 0.0)
        with self._lock:
            self._recorded += 1
            self._ring.append(record)
            for span in trace.spans:
                if span.duration is None:
                    continue
                histogram = self._stages.get(span.name)
                if histogram is None:
                    histogram = self._stages[span.name] = LatencyHistogram()
                histogram.observe(span.duration)
            if error:
                self._errored.append(record)
            entry = (duration, next(self._sequence), record)
            if len(self._slow) < self.slow_capacity:
                heapq.heappush(self._slow, entry)
            elif duration > self._slow[0][0]:
                heapq.heapreplace(self._slow, entry)
        return record

    # ------------------------------------------------------------------
    # Snapshots (all return copies; records themselves are never mutated)
    # ------------------------------------------------------------------
    def recent_snapshot(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most recent traces, newest first, at most ``limit``."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        return records[:limit] if limit is not None else records

    def slow_snapshot(self) -> List[Dict[str, object]]:
        """The slowest retained traces, slowest first."""
        with self._lock:
            entries = sorted(self._slow, reverse=True)
        return [record for _, _, record in entries]

    def errored_snapshot(self) -> List[Dict[str, object]]:
        """The most recent errored traces, newest first."""
        with self._lock:
            records = list(self._errored)
        records.reverse()
        return records

    def counters_snapshot(self) -> Dict[str, object]:
        """The ``tracing`` section of ``/v1/stats``: sampling/admission
        counters, retention sizes, and ``stages`` -- one
        :meth:`LatencyHistogram.snapshot` per span name -- read under one
        lock acquisition, so ``recorded`` and the stage counts agree."""
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "started": self._started,
                "recorded": self._recorded,
                "ring_size": len(self._ring),
                "slow_retained": len(self._slow),
                "errored_retained": len(self._errored),
                "stages": {
                    name: histogram.snapshot() for name, histogram in self._stages.items()
                },
            }


def format_trace(record: Dict[str, object]) -> str:
    """Render a trace record as an indented one-span-per-line tree.

    Used by ``repro query --trace`` and ``repro trace``.  Durations are
    printed in milliseconds; attributes as ``key=value`` pairs.

    >>> tracer = Tracer(sample_rate=1.0)
    >>> trace = tracer.start_trace("request.topk")
    >>> _ = trace.begin("kernel.traverse").end(nodes_visited=3)
    >>> text = format_trace(tracer.finish(trace, status=200))
    >>> "kernel.traverse" in text and "nodes_visited=3" in text
    True
    """
    header = "trace {trace_id} {name} {duration:.3f}ms".format(
        trace_id=record.get("trace_id", "?"),
        name=record.get("name", "?"),
        duration=float(record.get("duration_seconds") or 0.0) * 1000.0,
    )
    if record.get("status") is not None:
        header += f" status={record['status']}"
    if record.get("error"):
        header += " error=True"
    lines = [header]

    def render(node: Dict[str, object], depth: int) -> None:
        attributes = node.get("attributes") or {}
        suffix = "".join(
            f" {key}={value}" for key, value in attributes.items() if key != "status"
        )
        lines.append(
            "{indent}- [{process}] {name} {duration:.3f}ms{suffix}".format(
                indent="  " * depth,
                process=node.get("process", "?"),
                name=node.get("name", "?"),
                duration=float(node.get("duration_seconds") or 0.0) * 1000.0,
                suffix=suffix,
            )
        )
        for child in node.get("children") or []:
            render(child, depth + 1)

    for root in record.get("spans") or []:
        render(root, 1)
    return "\n".join(lines)
