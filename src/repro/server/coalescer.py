"""Request coalescing: many concurrent top-k requests, one batch search.

Under load, a serving daemon sees many independent top-k requests in
flight at once.  Answering each on its own handler thread would serialise
on the engine lock and forfeit the amortisation the batch pipeline already
gives in-process callers (one bulk pre-hash of the union of query cells,
shared thread-pool fan-out -- see
:func:`~repro.core.query.run_query_batch`; what each of those queries
then reads is docs/PERFORMANCE.md, "What one query reads").  The
:class:`RequestCoalescer` recovers it at the network boundary:

* handler threads :meth:`~RequestCoalescer.submit` their query and block;
* a single dispatcher thread collects every request that arrives within a
  small window (``window_seconds``, default 2 ms) into one batch, groups it
  by ``(k, approximation)``, and answers each group with **one** call on
  the server's *read backend* -- in-process, one ``engine.top_k_batch``
  under the engine lock; in the multi-process tiers, one fan-out over the
  replica fleet (see :class:`repro.server.app.ServingPart`).  Identical
  untraced queries in a group are searched once
  (:func:`~repro.core.query.shared_searches`);
* result payloads are handed back to the blocked handler threads.

Because ``top_k_batch`` is documented (and pinned) to return exactly what
serial ``top_k`` calls would -- including cache semantics -- coalescing is
invisible in the responses: only latency and throughput change.

**Admission control.**  The pending queue is bounded (``max_pending``).
When it is full, :meth:`submit` fails fast with :class:`QueueFullError`
instead of letting requests pile up; the HTTP layer maps that to ``429
Too Many Requests``.  Bounded queue + fail-fast keeps the daemon's memory
and tail latency flat when offered load exceeds capacity.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.query import shared_searches
from repro.obs.trace import SpanContext

__all__ = ["CoalescerStats", "QueueFullError", "RequestCoalescer"]


class QueueFullError(Exception):
    """The coalescer's bounded pending queue is at capacity (HTTP 429)."""


@dataclass
class CoalescerStats:
    """Cumulative counters of one :class:`RequestCoalescer`."""

    #: Queries accepted by :meth:`RequestCoalescer.submit`.
    submitted: int = 0
    #: Queries rejected because the pending queue was full.
    rejected: int = 0
    #: Dispatch rounds (each answers one drained batch of queries).
    batches: int = 0
    #: Queries that shared their dispatch round with at least one other
    #: query -- the fraction ``coalesced / submitted`` is the headline
    #: coalescing rate under concurrent load.
    coalesced: int = 0
    #: Queries dispatched so far (submitted minus still-pending).
    dispatched: int = 0
    #: Largest batch dispatched in one round.
    max_batch: int = 0

    @property
    def mean_batch(self) -> float:
        """Average queries per dispatch round (0 before the first round)."""
        if not self.batches:
            return 0.0
        return self.dispatched / self.batches

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict copy for the stats endpoint."""
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "dispatched": self.dispatched,
            "max_batch": self.max_batch,
            "mean_batch": self.mean_batch,
        }


class _PendingQuery:
    """One blocked top-k request: inputs, a completion event, an outcome."""

    __slots__ = ("entity", "k", "approximation", "trace", "done", "result", "error")

    def __init__(
        self,
        entity: str,
        k: int,
        approximation: float,
        trace: Optional[SpanContext] = None,
    ) -> None:
        self.entity = entity
        self.k = k
        self.approximation = approximation
        self.trace = trace
        self.done = threading.Event()
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[BaseException] = None


class RequestCoalescer:
    """Batches concurrent top-k queries into shared read-backend calls.

    Parameters
    ----------
    backend:
        The read backend: ``backend.topk(entities, k, approximation,
        traces)`` returns one result payload per entity (see
        :class:`repro.server.app.ServingPart`).  Serialising against
        writes is the backend's business -- the in-process
        :class:`~repro.server.app.EngineBackend` holds the server's engine
        lock per call.
    window_seconds:
        How long the dispatcher waits, after the first pending query of a
        round, for more queries to coalesce with it.  ``0`` dispatches
        immediately (still batching whatever already queued).
    max_pending:
        Bound on queries waiting for dispatch; :meth:`submit` raises
        :class:`QueueFullError` beyond it.
    max_batch:
        Largest number of queries dispatched in one round; excess stays
        queued for the next round (back-to-back, no window wait).

    Example
    -------
    >>> import threading
    >>> from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine
    >>> hierarchy = SpatialHierarchy.regular([2, 2])
    >>> dataset = TraceDataset(hierarchy, horizon=24)
    >>> dataset.add_record("ana", "u2_0_0", time=2, duration=3)
    >>> dataset.add_record("bo", "u2_0_0", time=2, duration=3)
    >>> engine = TraceQueryEngine(dataset, num_hashes=16).build()
    >>> from repro.server.app import EngineBackend
    >>> coalescer = RequestCoalescer(EngineBackend(engine, threading.Lock()))
    >>> try:
    ...     [row["entity"] for row in coalescer.submit("ana", k=1)["results"]]
    ... finally:
    ...     coalescer.close()
    ['bo']
    """

    def __init__(
        self,
        backend,
        window_seconds: float = 0.002,
        max_pending: int = 1024,
        max_batch: int = 64,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(f"window_seconds must be >= 0, got {window_seconds}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.backend = backend
        self.window_seconds = window_seconds
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.stats = CoalescerStats()
        self._pending: List[_PendingQuery] = []
        self._mutex = threading.Lock()
        self._arrived = threading.Condition(self._mutex)
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._run, name="repro-coalescer", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Client side (handler threads)
    # ------------------------------------------------------------------
    def submit(
        self,
        entity: str,
        k: int = 10,
        approximation: float = 0.0,
        trace: Optional[SpanContext] = None,
    ) -> Dict[str, object]:
        """Enqueue one query and block until its batch was answered.

        Raises :class:`QueueFullError` when the pending queue is at
        capacity, ``RuntimeError`` when the coalescer is closed, and
        re-raises whatever the search itself raised (e.g. ``KeyError`` for
        an entity the backend does not know).

        ``trace`` attaches a ``coalesce.wait`` span covering the queue
        time and travels with the query so the dispatcher can hang its
        ``coalesce.dispatch`` and kernel spans under the right trace.
        """
        wait_span = trace.begin("coalesce.wait") if trace is not None else None
        query = _PendingQuery(entity, k, approximation, trace)
        with self._mutex:
            if self._closed:
                raise RuntimeError("the coalescer is closed")
            if len(self._pending) >= self.max_pending:
                self.stats.rejected += 1
                raise QueueFullError(
                    f"{len(self._pending)} queries already pending "
                    f"(max_pending={self.max_pending})"
                )
            self._pending.append(query)
            self.stats.submitted += 1
            self._arrived.notify()
        query.done.wait()
        if wait_span is not None:
            wait_span.end(error=query.error is not None)
        if query.error is not None:
            raise query.error
        assert query.result is not None
        return query.result

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._mutex:
                waited_for_arrival = False
                while not self._pending and not self._closed:
                    self._arrived.wait()
                    waited_for_arrival = True
                if self._closed and not self._pending:
                    return
                if self.window_seconds > 0 and waited_for_arrival:
                    # Collect company: requests arriving inside the window
                    # join this round.  Waiting on the condition (which
                    # submit() notifies) rather than polling means one
                    # wakeup per arrival; a full batch or close() ends the
                    # wait early.  Rounds that start with queries already
                    # queued -- leftovers beyond max_batch, or arrivals
                    # during the previous dispatch -- skip the window:
                    # those queries have waited their share already.
                    deadline = time.monotonic() + self.window_seconds
                    while len(self._pending) < self.max_batch and not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._arrived.wait(timeout=remaining):
                            break
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
            if batch:
                self._dispatch(batch)

    def _dispatch(self, batch: List[_PendingQuery]) -> None:
        """Answer one drained batch: group, search, distribute."""
        with self._mutex:
            # Counter updates happen under the mutex so stats_snapshot()
            # never observes a half-updated pair (batches bumped but
            # dispatched not yet) -- the same coherent-snapshot contract
            # QueryResultCache and ServerMetrics keep.
            self.stats.batches += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            self.stats.dispatched += len(batch)
            if len(batch) > 1:
                self.stats.coalesced += len(batch)
        groups: Dict[Tuple[int, float], List[_PendingQuery]] = {}
        for query in batch:
            groups.setdefault((query.k, query.approximation), []).append(query)
        for (k, approximation), members in groups.items():
            # Open one coalesce.dispatch span per *traced* member; kernel
            # spans nest under it via the per-member contexts handed to
            # the backend.  Untraced batches pass no traces at all, so the
            # hot path is unchanged when tracing is off.
            dispatch_spans = {}
            traces = None
            if any(query.trace is not None for query in members):
                traces = []
                for query in members:
                    if query.trace is None:
                        traces.append(None)
                        continue
                    span = query.trace.begin(
                        "coalesce.dispatch",
                        round_size=len(batch),
                        group_size=len(members),
                    )
                    dispatch_spans[id(query)] = span
                    traces.append(query.trace.under(span))
            # Identical queries are searched once; each repeat gets a
            # fresh payload dict.
            owners = shared_searches([query.entity for query in members], traces)
            searched = sorted(set(owners))
            try:
                results = self.backend.topk(
                    [members[position].entity for position in searched],
                    k,
                    approximation,
                    None if traces is None else [traces[p] for p in searched],
                )
            except BaseException as exc:  # noqa: BLE001 - handed to the waiter
                for span in dispatch_spans.values():
                    span.end(error=type(exc).__name__)
                self._fail_individually(members, k, approximation, exc)
                continue
            found = dict(zip(searched, results))
            for position, (query, owner) in enumerate(zip(members, owners)):
                span = dispatch_spans.get(id(query))
                if span is not None:
                    span.end()
                query.result = found[owner] if owner == position else dict(found[owner])
                query.done.set()

    def _fail_individually(
        self,
        members: List[_PendingQuery],
        k: int,
        approximation: float,
        batch_error: BaseException,
    ) -> None:
        """Fall back to per-query searches when a batch failed.

        One bad query (typically an unknown entity raising ``KeyError``)
        must not poison the whole round: every member is retried alone and
        receives its own result or its own error.
        """
        for query in members:
            traces = [query.trace] if query.trace is not None else None
            try:
                query.result = self.backend.topk(
                    [query.entity], k, approximation, traces
                )[0]
            except BaseException as exc:  # noqa: BLE001 - handed to the waiter
                query.error = exc
            query.done.set()
        del batch_error

    def stats_snapshot(self) -> Dict[str, object]:
        """A coherent copy of the counters, taken under the mutex.

        The stats endpoint's read path: :attr:`stats` is mutated under the
        mutex (by :meth:`submit` and the dispatcher), so reading its fields
        individually from another thread could observe a torn pair.
        """
        with self._mutex:
            return self.stats.snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting queries, drain what is pending, join the thread."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._arrived.notify_all()
        self._dispatcher.join()

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RequestCoalescer(window={self.window_seconds}s, "
            f"max_pending={self.max_pending}, max_batch={self.max_batch}, "
            f"pending={len(self._pending)})"
        )
