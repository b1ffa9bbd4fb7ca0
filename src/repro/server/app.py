"""The serving daemon: :class:`TraceServer` and its HTTP transport.

This module turns an in-process engine -- a
:class:`~repro.core.engine.TraceQueryEngine` or a
:class:`~repro.service.sharded.ShardedEngine` -- into a multi-client
network service with exactly the semantics of the in-process API.  It is
built entirely on the standard library (``http.server``), so serving adds
no runtime dependency.

Layering (transport-free core, thin HTTP skin):

* :class:`TraceServer` is the **only** class with ``handle_*`` methods.
  It owns the engine, one engine lock, an
  :class:`~repro.streaming.EventIngestor` (streamed writes), a
  :class:`~repro.server.coalescer.RequestCoalescer` (batched reads), and
  :class:`~repro.server.metrics.ServerMetrics`.  Its handlers take parsed
  JSON and return ``(status, payload)`` pairs -- fully testable without
  sockets, and the doctest below runs exactly that way.
* Serving tiers are **configurations** of that one class: a *read backend*
  answers the queries (:class:`EngineBackend`, the owner's engine under
  the engine lock, by default; otherwise a
  :class:`~repro.cluster.frontend.ClusterFleet` of read processes -- one
  group of whole-engine replicas for ``--workers N``, one group per shard
  for ``--cluster``, answering through the owner's :class:`EngineBackend`
  until its processes are up) and an optional *publisher*
  (:class:`~repro.server.frontend.GenerationPublisher`) turns every
  index-changing flush into a snapshot generation the read processes
  adopt.  The table lives in ``docs/SERVING.md``.
* :func:`build_http_server` wraps a :class:`TraceServer` in a
  ``ThreadingHTTPServer`` routing ``POST /v1/topk``, ``POST /v1/events``,
  ``GET /v1/healthz``, ``GET /v1/stats``, ``GET /metrics`` (Prometheus
  text exposition), and ``GET /v1/debug/slow`` (the slow-query log; see
  ``docs/OBSERVABILITY.md``).

**Consistency model.**  One lock serialises engine access: writes (event
appends and flushes) run under it, and so do the in-process backend's
coalesced ``top_k_batch`` calls.  Buffered events are invisible to
queries until a flush (micro-batch full, or ``"flush": true``), exactly as
for the in-process ingestor, so every response equals what the in-process
API would have returned at some serialisation point of the request stream
-- the concurrency-equivalence suite pins this byte-for-byte.  With a
publisher plugged in, the flush publishes *before* the events response is
written, so an acknowledged write is visible to every later query.

**Shutdown.**  :meth:`TraceServer.close` drains the coalescer, then
flushes the ingestor (publishing a final generation), then stops the read
backend's processes and removes a private generation store, so no accepted
write is lost on a clean shutdown (the CLI installs SIGINT/SIGTERM
handlers that do this).

Example
-------
>>> from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine
>>> from repro.server import TraceServer
>>> hierarchy = SpatialHierarchy.regular([2, 2])
>>> dataset = TraceDataset(hierarchy, horizon=48)
>>> dataset.add_record("ana", "u2_0_0", time=2, duration=3)
>>> dataset.add_record("bo", "u2_0_0", time=2, duration=3)
>>> server = TraceServer(TraceQueryEngine(dataset, num_hashes=16).build())
>>> status, payload = server.handle_topk({"entity": "ana", "k": 1})
>>> status, [r["entity"] for r in payload["results"]]
(200, ['bo'])
>>> status, payload = server.handle_events({"events": [
...     {"entity": "cy", "unit": "u2_0_0", "start": 2, "end": 5}], "flush": True})
>>> status, payload["accepted"], payload["affected_entities"]
(200, 1, ['cy'])
>>> server.handle_topk({"entity": "cy", "k": 2})[1]["results"][0]["entity"]
'ana'
>>> server.close()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.exposition import render_exposition
from repro.obs.trace import SpanContext, Tracer
from repro.server.coalescer import QueueFullError, RequestCoalescer
from repro.server.metrics import ServerMetrics, metric_families
from repro.server import protocol
from repro.streaming.ingestor import EventIngestor, StreamingConfig

__all__ = ["EngineBackend", "ServingPart", "TraceServer", "build_http_server"]

Response = Tuple[int, Dict[str, object]]
Traces = Optional[Sequence[Optional[SpanContext]]]


class ServingPart:
    """What a part plugged into :class:`TraceServer` may contribute.

    Read backends and publishers subclass this and override what they
    have: the server merges :meth:`health` into ``/v1/healthz`` and
    :meth:`stats` into ``/v1/stats``, so each counter is reported once, by
    the object that keeps it; ``/metrics`` renders those sections through
    :func:`repro.server.metrics.metric_families`.  A *read backend*
    additionally answers queries with its one method ``topk`` -- a
    coalesced round, the coalescer's one-query fallback and a client's
    batch request alike --
    ``(entities, k, approximation, traces) -> [result payload, ...]`` in
    request order, raising ``KeyError`` for an unknown entity and
    ``RuntimeError`` when no answer could be produced.
    """

    def start(self, owner: "EngineBackend") -> None:
        """Bring up whatever answers queries (called once, by the server,
        after the publisher's initial generation exists).  ``owner`` is
        the server's :class:`EngineBackend`, for a backend that answers
        through it until its own processes are up."""

    def health(self) -> Dict[str, object]:
        """Keys merged into the ``/v1/healthz`` body (must not block)."""
        return {}

    def stats(self) -> Dict[str, object]:
        """Sections merged into the ``/v1/stats`` body."""
        return {}

    def close(self) -> None:
        """Release processes, connections and private files."""


class EngineBackend(ServingPart):
    """The in-process read backend: the owner's engine under its lock.

    Every search runs as one ``top_k_batch`` call holding ``lock`` (the
    server's engine lock, shared with the write path), so a dispatch round
    or a client batch has a single serialisation point against flushes.
    """

    def __init__(self, engine, lock) -> None:
        self.engine = engine
        self.lock = lock

    def topk(
        self, entities: Sequence[str], k: int, approximation: float, traces: Traces = None
    ) -> List[Dict[str, object]]:
        """Answer ``entities`` with one batch search under the engine lock."""
        with self.lock:
            results = self.engine.top_k_batch(
                entities, k=k, approximation=approximation, traces=traces
            ).results
        return [protocol.topk_result_payload(result) for result in results]


class TraceServer:
    """The transport-free serving core: one engine behind checked JSON APIs.

    Parameters
    ----------
    engine:
        A **built** :class:`~repro.core.engine.TraceQueryEngine` or
        :class:`~repro.service.sharded.ShardedEngine`.  The server is its
        single writer whatever answers the reads.
    streaming:
        Config of the embedded :class:`~repro.streaming.EventIngestor`
        (micro-batch size, window, compaction); defaults to
        ``StreamingConfig()``.
    coalesce_window:
        Seconds the request coalescer waits for concurrent queries to share
        a batch (0 dispatches immediately, still batching what queued).
    max_pending:
        Admission-control bound: top-k queries waiting for dispatch beyond
        this are answered ``429``.
    max_batch:
        Largest coalesced batch dispatched at once.
    trace_sample:
        Probability (0..1) that a top-k request is traced end to end
        (``repro serve --trace-sample``).  ``0`` (default) disables
        tracing entirely; any rate never changes responses -- the
        equivalence suite pins byte-identity under ``trace_sample=1.0``.
    tracer:
        Optional pre-built :class:`repro.obs.trace.Tracer`; overrides
        ``trace_sample`` (used by tests to control sampling seeds).
    wal:
        Optional :class:`~repro.streaming.wal.WriteAheadLog` the embedded
        ingestor appends every micro-batch to before flushing it, making
        accepted events crash-durable (``repro serve --wal``; see
        ``docs/DURABILITY.md``).
    stream_state:
        Optional recovered stream state (the dict of
        :meth:`~repro.streaming.EventIngestor.stream_state`) seeding the
        ingestor's watermark and window position, so a restarted server
        continues exactly where the recovered WAL ends.
    backend:
        The *read backend* answering ``/v1/topk`` (see
        :class:`ServingPart`); defaults to an :class:`EngineBackend` over
        ``engine``.  The server starts it -- handing it that
        :class:`EngineBackend`, which a replica fleet answers through until
        its processes are up -- and closes it.
    publisher:
        Optional :class:`~repro.server.frontend.GenerationPublisher`
        whose generations the backend's processes read; the server attaches
        it to the ingestor (initial publish, flush hook) before starting
        the backend and closes it last.
        :func:`~repro.server.frontend.worker_tier` and
        :func:`~repro.cluster.frontend.cluster_tier` build matching
        ``backend`` + ``publisher`` pairs.
    """

    def __init__(
        self,
        engine,
        streaming: Optional[StreamingConfig] = None,
        coalesce_window: float = 0.002,
        max_pending: int = 1024,
        max_batch: int = 64,
        trace_sample: float = 0.0,
        tracer: Optional[Tracer] = None,
        wal=None,
        stream_state: Optional[Dict[str, object]] = None,
        backend: Optional[ServingPart] = None,
        publisher: Optional[ServingPart] = None,
    ) -> None:
        if not engine.is_built:
            raise ValueError("TraceServer requires a built engine")
        self.engine = engine
        #: Serialises every engine access: in-process searches, event
        #: appends, flushes (and the generation publish they trigger), and
        #: stats reads that touch engine state.
        self.engine_lock = threading.RLock()
        self.metrics = ServerMetrics()
        self.ingestor = EventIngestor(engine, config=streaming, wal=wal)
        if stream_state:
            self.ingestor.restore_stream_state(
                watermark=int(stream_state.get("watermark", 0)),
                window_cutoff=stream_state.get("window_cutoff"),
                window_churn=int(stream_state.get("window_churn", 0)),
            )
        owner = EngineBackend(engine, self.engine_lock)
        self.backend = backend if backend is not None else owner
        self.publisher = publisher
        #: The plugged parts, in the order their contributions are merged.
        self._parts: List[ServingPart] = [self.backend]
        if publisher is not None:
            self._parts.append(publisher)
        self.coalescer = RequestCoalescer(
            self.backend,
            window_seconds=coalesce_window,
            max_pending=max_pending,
            max_batch=max_batch,
        )
        #: One tracer for the deployment: edge spans and the spans worker
        #: processes ship back land in the same ring and slow-query log.
        self.tracer = tracer if tracer is not None else Tracer(sample_rate=trace_sample)
        self.started_at = time.monotonic()
        self._closed = False
        self._flush_count = 0
        self.ingestor.add_flush_hook(self._record_flush)
        try:
            if publisher is not None:
                # Initial generation: the engine as loaded, before any
                # stream write, so read processes have something to adopt
                # the moment they are spawned.
                with self.engine_lock:
                    publisher.attach(self.ingestor)
            self.backend.start(owner)
        except BaseException:
            self.close()
            raise

    def _record_flush(self, report) -> None:
        self._flush_count += 1

    # ------------------------------------------------------------------
    # Endpoint handlers (transport-free)
    # ------------------------------------------------------------------
    def handle_topk(self, payload: object) -> Response:
        """``POST /v1/topk``: single queries through the coalescer, batch
        requests as one direct call on the read backend.

        A batch request *is already a batch* -- routing its entities one by
        one through the coalescer would serialise them over several
        dispatch rounds (paying the coalesce window per entity and letting
        a flush land mid-batch).  Handing it whole to the backend keeps the
        shared-pre-hash amortisation in-process (one ``top_k_batch`` under
        the engine lock) and lets a replica fleet scatter it over processes.

        The sampling decision for cross-layer tracing happens here, at the
        request edge; sampled requests carry a trace context down through
        the coalescer and the backend (over the worker wire, in
        multi-process deployments) and land in the tracer's ring and
        slow-query log.
        """
        trace = self.tracer.start_trace("request.topk")
        if trace is None:
            return self._answer_topk(payload, None)
        try:
            status, response = self._answer_topk(payload, trace.context())
        except BaseException:
            self.tracer.finish(trace, error=True)
            raise
        self.tracer.finish(trace, status=status, error=status >= 500)
        return status, response

    def _refusal(self, entities: Sequence[str]) -> Optional[Response]:
        """Why these queries are not admitted (``None`` when they are).

        The membership pre-check is cheap and load-bearing: an unknown
        entity answered here costs nothing, while one reaching the
        coalescer aborts its whole shared batch (every innocent co-rider is
        re-run serially).  The coalescer's per-query fallback still covers
        the check-to-dispatch removal race.
        """
        if self._closed:
            return 503, protocol.error_payload("the server is shutting down")
        for candidate in entities:
            if candidate not in self.engine.dataset:
                return 404, protocol.error_payload(f"unknown entity {candidate!r}")
        return None

    def _answer_topk(self, payload: object, trace: Optional[SpanContext]) -> Response:
        """The actual ``/v1/topk`` logic; ``trace`` is ``None`` when unsampled."""
        try:
            request = protocol.parse_topk_request(payload)
        except protocol.ProtocolError as exc:
            return exc.status, protocol.error_payload(str(exc))
        if trace is not None:
            trace.parent.attributes["batch"] = request.batch
            trace.parent.attributes["queries"] = len(request.entities)
        if request.batch or self.publisher is not None:
            # Admission serialises with the write path.  With a publisher
            # this is what makes the pre-check sound: the dataset only
            # gains entities at a flush, and every flush publishes before
            # it releases the lock, so an entity passing the check exists
            # in the generation any read process adopts by the time it
            # answers.
            with self.engine_lock:
                refusal = self._refusal(request.entities)
        else:
            # A single query against the owner's own engine: its search is
            # serialised by the backend anyway, and queueing here behind a
            # running dispatch round would only cost it the next round's
            # coalescing window.
            refusal = self._refusal(request.entities)
        if refusal is not None:
            return refusal
        try:
            if request.batch:
                payloads = self.backend.topk(
                    request.entities,
                    request.k,
                    request.approximation,
                    [trace] * len(request.entities) if trace is not None else None,
                )
                return 200, {"results": payloads}
            return 200, self.coalescer.submit(
                request.entities[0],
                k=request.k,
                approximation=request.approximation,
                trace=trace,
            )
        except QueueFullError as exc:
            return 429, protocol.error_payload(str(exc))
        except KeyError:
            return 404, protocol.error_payload(
                f"unknown entity {request.entities[0]!r}"
            )
        except RuntimeError as exc:
            return 503, protocol.error_payload(str(exc))

    def handle_events(self, payload: object) -> Response:
        """``POST /v1/events``: streamed ingest through the micro-batcher.

        Events are buffered; a flush happens when the micro-batch fills or
        the request asks for one (``"flush": true``).  Unknown or non-base
        spatial units are client errors (400) -- the whole request is
        rejected before any event is buffered, so a bad batch never
        half-applies.  With a publisher plugged in, the flush hook
        publishes a generation before this response is written, so an
        acknowledged flushed write is visible to every subsequent query.
        """
        try:
            request = protocol.parse_events_request(payload)
        except protocol.ProtocolError as exc:
            return exc.status, protocol.error_payload(str(exc))
        # Validate spatial units and periods *before* buffering anything:
        # the ingestor applies events lazily at flush time, and a bad event
        # surfacing in a later, unrelated request would be unattributable.
        # Rejecting here keeps event batches all-or-nothing.  The horizon
        # bound is load-bearing twice over: signature work is O(duration)
        # under the engine lock (one huge period would stall every client),
        # and the ingest watermark is monotone (one far-future end would
        # make a sliding window silently drop all later normal events).
        # Provision ``--horizon`` to cover the stream, as docs/SERVING.md
        # and docs/ARCHITECTURE.md prescribe.
        hierarchy = self.engine.dataset.hierarchy
        horizon = max(self.engine.dataset.horizon, 1)
        for position, event in enumerate(request.events):
            if (
                event.unit not in hierarchy
                or hierarchy.level_of(event.unit) != hierarchy.num_levels
            ):
                return 400, protocol.error_payload(
                    f"event #{position}: {event.unit!r} is not a base unit of "
                    "the sp-index"
                )
            if event.end > horizon:
                return 400, protocol.error_payload(
                    f"event #{position}: period ends at {event.end}, beyond the "
                    f"served horizon of {horizon} base temporal units (serve "
                    "with a larger --horizon, or rebuild the snapshot with "
                    "`repro index build --horizon`, to accept later events)"
                )
        flushed_events = 0
        dropped_late = 0
        affected: Optional[List[str]] = None

        def absorb(report) -> None:
            nonlocal flushed_events, dropped_late, affected
            flushed_events += report.events
            dropped_late += report.dropped_late
            if affected is None:
                affected = []
            seen = set(affected)
            affected.extend(
                entity for entity in report.affected_entities if entity not in seen
            )

        with self.engine_lock:
            # The shutting-down check must happen under the lock: close()
            # sets the flag and then takes this lock for the final flush,
            # so a handler that got here first completes before that flush
            # (its events are flushed, not lost), and one that arrives
            # after is rejected -- an acknowledged write can never land in
            # a buffer nobody will flush.
            if self._closed:
                return 503, protocol.error_payload("the server is shutting down")
            for event in request.events:
                report = self.ingestor.submit(event)
                if report is not None:
                    absorb(report)
            if request.flush and (self.ingestor.buffered_events or not request.events):
                absorb(self.ingestor.flush())
            buffered = self.ingestor.buffered_events
        return 200, protocol.events_payload(
            accepted=len(request.events),
            buffered=buffered,
            flushed_events=flushed_events,
            dropped_late=dropped_late,
            affected_entities=affected,
        )

    def handle_healthz(self) -> Response:
        """``GET /v1/healthz``: liveness plus the one-line deployment shape.

        Deliberately lock-free: a liveness probe that queued behind the
        engine lock would time out exactly when the daemon is busiest (a
        coalesced batch search or a micro-batch flush holds the lock for
        their full duration).  ``num_entities`` is a cheap dictionary-size
        read; a momentarily stale value is fine for a probe.

        Once :meth:`close` ran, the probe answers ``503`` (body status
        ``"shutting_down"``): a load balancer keying on the status code --
        which is what most of them do -- must stop routing to a draining
        process, not keep sending it traffic because the JSON body happens
        to spell out the state.

        The plugged parts add the deployment's process topology: a replica
        fleet its process count, cumulative ``respawns`` (a non-zero delta
        between probes means read processes are crashing, which a probe of
        this process alone would never surface) and per-group liveness, a
        publisher the ``generation`` queries observe at minimum.
        """
        status = 200 if not self._closed else 503
        payload: Dict[str, object] = {
            "status": "ok" if not self._closed else "shutting_down",
            "entities": self.engine.dataset.num_entities,
            "uptime_seconds": time.monotonic() - self.started_at,
        }
        for part in self._parts:
            payload.update(part.health())
        return status, payload

    def handle_stats(self) -> Response:
        """``GET /v1/stats``: engine, cache, ingest, coalescer, HTTP metrics.

        The server's one snapshot -- ``/metrics`` is rendered from it too.
        The whole payload is assembled from **one consistent read**: every
        source is snapshotted under the engine lock, in the fixed
        acquisition order *engine lock -> coalescer mutex -> metrics lock
        -> tracer lock* (all leaf locks never taken while holding each
        other, so the order is trivially deadlock-free).  A concurrent
        flush or dispatch therefore cannot interleave a half-updated view
        -- e.g. an engine whose entity count already includes a flush whose
        ingest counters do not.  Each plugged part then adds its own
        section (``workers``, ``generation``, ``cluster``) from its own
        leaf lock.
        """
        with self.engine_lock:
            engine_stats = self.engine.runtime_stats()
            ingest = self.ingestor.stats
            ingest_stats = {
                "events_submitted": ingest.events_submitted,
                "events_flushed": ingest.events_flushed,
                "events_buffered": ingest.events_buffered,
                "events_dropped_late": ingest.events_dropped_late,
                "batches_flushed": ingest.batches_flushed,
                "mean_batch_size": ingest.mean_batch_size,
                "seconds_in_flush": ingest.seconds_in_flush,
                "flushes": self._flush_count,
                "watermark": self.ingestor.watermark,
                "seconds_since_last_flush": (
                    time.monotonic() - ingest.last_flush_monotonic
                    if ingest.last_flush_monotonic is not None
                    else None
                ),
            }
            coalescer_stats = self.coalescer.stats_snapshot()
            endpoint_stats = self.metrics.snapshot()
            tracing_stats = self.tracer.counters_snapshot()
        payload: Dict[str, object] = {
            "engine": engine_stats,
            "ingest": ingest_stats,
            "coalescer": coalescer_stats,
            "endpoints": endpoint_stats,
            "tracing": tracing_stats,
            "uptime_seconds": time.monotonic() - self.started_at,
        }
        for part in self._parts:
            payload.update(part.stats())
        return 200, payload

    def handle_metrics(self) -> Tuple[int, str]:
        """``GET /metrics``: Prometheus text exposition (format 0.0.4).

        A pure function of the :meth:`handle_stats` body
        (:func:`~repro.server.metrics.metric_families`), so a scrape reads
        exactly what ``/v1/stats`` reports, with its one acquisition order.
        """
        return 200, render_exposition(metric_families(self.handle_stats()[1]))

    def handle_debug_slow(self) -> Response:
        """``GET /v1/debug/slow``: the slow-query log.

        Returns the N slowest traces (full span trees, slowest first) and
        the most recent errored traces -- the tracer's bounded buffers, so
        the payload size is capped regardless of traffic.
        """
        return 200, {
            "sample_rate": self.tracer.sample_rate,
            "slowest": self.tracer.slow_snapshot(),
            "errored": self.tracer.errored_snapshot(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: drain reads, flush writes, stop the backend.

        Idempotent.  Order matters: the coalescer drains first (queries
        still in flight see pre-flush state, like any query racing a
        write, and are answered by the still-running backend), then the
        ingestor flushes so every accepted event is applied to the engine
        -- and published, so the store's newest generation holds every
        accepted write -- and only then are the backend's processes
        stopped and a private generation store removed.
        """
        if self._closed:
            return
        self._closed = True
        self.coalescer.close()
        with self.engine_lock:
            self.ingestor.close()
        for part in self._parts:
            part.close()

    def __enter__(self) -> "TraceServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the :class:`TraceServer` handlers.

    One instance per request (``http.server`` semantics); the shared state
    lives on ``self.server.trace_server``.  Request logging is routed into
    the metrics instead of stderr.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle keep-alive connection is dropped after this
    #: many seconds, which bounds how long server_close() can block while
    #: joining handler threads on shutdown.
    timeout = 10
    #: One response is one TCP segment: status line, headers and body are
    #: buffered and flushed together by ``_send``, with Nagle off.  Written
    #: as two segments, the body waits out the client's delayed ACK of the
    #: headers (~40 ms per keep-alive response).
    wbufsize = -1
    disable_nagle_algorithm = True
    #: The only paths that get their own metrics key.  Anything else is
    #: folded into "other": client-chosen paths must not allocate
    #: per-path counters, or a hostile scanner grows the metrics without
    #: bound (the constant-memory constraint of repro.server.metrics).
    known_endpoints = frozenset(
        {"/v1/topk", "/v1/events", "/v1/healthz", "/v1/stats", "/metrics", "/v1/debug/slow"}
    )
    #: Largest accepted request body; far above any legitimate request
    #: given MAX_ITEMS_PER_REQUEST, and keeps a hostile client from
    #: ballooning handler memory.
    max_body_bytes = 32 * 1024 * 1024

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default per-request stderr line (metrics cover it)."""

    def _trace_server(self) -> TraceServer:
        return self.server.trace_server  # type: ignore[attr-defined]

    def _endpoint(self) -> str:
        """The bounded metrics key for this request's path."""
        path = self.path.split("?", 1)[0]
        return path if path in self.known_endpoints else "other"

    def _send(
        self, endpoint: str, started: float, status: int, payload: Union[Dict, str]
    ) -> None:
        """Write one response: a JSON document, or (``str``) the Prometheus text."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            # The content type Prometheus scrapers negotiate for the 0.0.4
            # text format.
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = protocol.dumps(payload)
            content_type = "application/json"
        # Observed *before* the body is written: once a client has read its
        # response, a follow-up /v1/stats read must already count it.
        self._trace_server().metrics.observe(
            endpoint, status=status, seconds=time.perf_counter() - started
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        if self.close_connection:
            # Set when the request body was left unread: the client must
            # not reuse a connection whose stream is desynchronised.
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _read_json_body(self) -> object:
        # Error paths that leave the body unread must also close the
        # connection: on HTTP/1.1 keep-alive, unconsumed body bytes would
        # be parsed as the next request line, desynchronising every later
        # request on the connection.
        length = self.headers.get("Content-Length")
        if length is None:
            self.close_connection = True
            raise protocol.ProtocolError("Content-Length is required", status=411)
        try:
            size = int(length)
        except ValueError:
            self.close_connection = True
            raise protocol.ProtocolError(f"invalid Content-Length {length!r}") from None
        if size < 0 or size > self.max_body_bytes:
            self.close_connection = True
            raise protocol.ProtocolError(
                f"request body of {size} bytes exceeds the "
                f"{self.max_body_bytes}-byte cap",
                status=413,
            )
        raw = self.rfile.read(size)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise protocol.ProtocolError(f"request body is not valid JSON: {exc}") from exc

    def do_POST(self) -> None:
        started = time.perf_counter()
        # Route on the query-stripped path: clients and probes may append
        # query strings, which the JSON-body protocol simply ignores.
        path = self.path.split("?", 1)[0]
        endpoint = self._endpoint()
        if path not in ("/v1/topk", "/v1/events"):
            # Routed before the body is read, so an unknown path answers
            # 404 regardless of its payload and never pays a body read;
            # the unread body forces a connection close (see above).
            self.close_connection = True
            self._send(endpoint, started, 404, protocol.error_payload(f"unknown path {path}"))
            return
        try:
            payload = self._read_json_body()
        except protocol.ProtocolError as exc:
            self._send(endpoint, started, exc.status, protocol.error_payload(str(exc)))
            return
        if path == "/v1/topk":
            status, response = self._trace_server().handle_topk(payload)
        else:
            status, response = self._trace_server().handle_events(payload)
        self._send(endpoint, started, status, response)

    def do_GET(self) -> None:
        started = time.perf_counter()
        if self.headers.get("Content-Length") or self.headers.get("Transfer-Encoding"):
            # GET endpoints take no body; an unread body would desync a
            # keep-alive connection exactly like the POST error paths, so
            # close it (the same invariant _read_json_body keeps).
            self.close_connection = True
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            status, response = self._trace_server().handle_metrics()
        elif path == "/v1/healthz":
            status, response = self._trace_server().handle_healthz()
        elif path == "/v1/stats":
            status, response = self._trace_server().handle_stats()
        elif path == "/v1/debug/slow":
            status, response = self._trace_server().handle_debug_slow()
        elif path in ("/v1/topk", "/v1/events"):
            status, response = 405, protocol.error_payload(f"{path} requires POST")
        else:
            status, response = 404, protocol.error_payload(f"unknown path {path}")
        self._send(self._endpoint(), started, status, response)


def build_http_server(
    trace_server: TraceServer, host: str = "127.0.0.1", port: int = 8080
) -> ThreadingHTTPServer:
    """Bind a ``ThreadingHTTPServer`` serving ``trace_server``.

    Raises ``OSError`` when the port cannot be bound (in use, privileged,
    bad host) -- the CLI maps that to exit code 2.  ``port=0`` binds an
    ephemeral port; read the chosen one from ``server.server_address``.
    The caller owns the loop: ``server.serve_forever()`` to run,
    ``server.shutdown()`` (from another thread), ``server.server_close()``,
    then ``trace_server.close()`` to stop cleanly.

    Handler threads are non-daemon and joined by ``server_close()``
    (``block_on_close``), so an in-flight response is written out before
    the process exits -- a drained query is never answered with a severed
    connection.  The handler's socket timeout bounds the join: idle
    keep-alive connections drop after ``_Handler.timeout`` seconds.
    """
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.daemon_threads = False
    httpd.block_on_close = True
    httpd.trace_server = trace_server  # type: ignore[attr-defined]
    return httpd
