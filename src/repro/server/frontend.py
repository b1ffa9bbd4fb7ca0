"""The multi-process tier's parts: a worker socket pool and a publisher.

``repro serve --workers N`` escapes the GIL by splitting the daemon into
processes (see docs/SERVING.md for the full model).  It is the one
:class:`~repro.server.app.TraceServer` with two parts from this module
plugged in (:func:`worker_tier` builds the pair):

* the server process accepts every HTTP request and stays the single
  **owner** of the mutable index: ``/v1/events`` flows into its write path
  exactly as in single-process mode, and the :class:`GenerationPublisher`
  turns every index-changing flush into a new immutable snapshot
  generation (:class:`~repro.server.generation.GenerationStore`) from a
  flush hook, under the engine lock;
* ``/v1/topk`` never touches the owner engine.  Queries are admission
  controlled and coalesced by the same
  :class:`~repro.server.coalescer.RequestCoalescer` as in-process serving
  -- pointed at a :class:`WorkerPool` instead of the engine -- and batches
  are scatter-gathered over N read-only **worker processes**
  (:mod:`repro.server.workers`) connected through a Unix-socket pool.

Workers adopt the newest generation at each request boundary, so every
query observes at least every generation published before the request was
received; the equivalence suite pins that the resulting responses are
byte-identical to the in-process daemon's.  A worker that dies (crash,
SIGKILL) is detected by its broken connection; its in-flight queries are
retried on the remaining workers -- reads are idempotent -- and the worker
is respawned in the background of the retry.  The connection itself, its
timeouts and its one error are the read client's (``docs/SERVING.md``,
"Client side"); this module is the pool's policy over it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, List, Optional

from repro.core.query import fan_out_queries
from repro.obs.trace import SpanContext
from repro.server.app import ServingPart
from repro.server.backoff import ExponentialBackoff
from repro.server.generation import DELTA_CHAIN_LIMIT, GenerationStore, SnapshotDelta
from repro.server.workers import (
    Address,
    ReadClient,
    ReadProcess,
    ReadProcessError,
    begin_remote_spans,
    stitch_spans,
)

__all__ = ["GenerationPublisher", "WorkerPool", "worker_tier"]

PathLikeT = os.PathLike

#: The pool's client timeouts: seconds for one connect to a worker's
#: socket, and for one exchange -- a whole coalesced batch's searches.
WORKER_CONNECT_TIMEOUT = 30.0
WORKER_REQUEST_TIMEOUT = 120.0


class _WorkerHandle(ReadProcess):
    """One worker process and the client its pool slot talks to it through.

    The pool keeps one handle per worker and hands idle handles to
    requesters, so a handle's client carries one exchange at a time.  The
    child unlinks a stale socket file before it binds, so a respawn needs
    no clean-up here.
    """

    def __init__(self, index: int, store_root: Path, startup_timeout: float) -> None:
        self.index = index
        socket_path = str(store_root / f"worker-{index:02d}.sock")
        super().__init__(
            f"worker {index}",
            [
                "--store",
                str(store_root),
                "--socket",
                socket_path,
                "--startup-timeout",
                str(startup_timeout),
            ],
        )
        self.client = ReadClient(
            socket_path, self.name, WORKER_CONNECT_TIMEOUT, WORKER_REQUEST_TIMEOUT
        )

    def _listening(self) -> Optional[Address]:
        """Listening once it answers a ping: the socket is up and the
        initial generation loaded.  The probe is the slot's own client, so
        its connection is the one the first query uses."""
        try:
            self.client.request({"op": "ping"})
        except ReadProcessError:
            return None
        return self.client.address

    def close(self) -> None:
        """Terminate the worker and reap it."""
        self.client.close()
        self.terminate()


class WorkerPool(ServingPart):
    """N worker processes behind an idle-handle queue -- a read backend.

    ``topk`` checks a handle out, performs one framed exchange, and checks
    it back in; concurrent callers therefore spread over the pool, and a
    scattered batch occupies as many workers as it has chunks.  A broken
    handle is respawned and the request retried on the pool -- bounded by
    ``num_workers + 1`` attempts so a systematically failing request
    cannot retry forever.

    Constructing the pool spawns nothing; :meth:`start` does, because the
    workers load the store's current generation at startup and so must
    not come up before the owner's initial publish.
    """

    def __init__(
        self,
        store_root: PathLikeT,
        num_workers: int,
        startup_timeout: float = 60.0,
        respawn_backoff_base: float = 0.2,
        respawn_backoff_cap: float = 10.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.store_root = Path(store_root)
        self.num_workers = num_workers
        #: Backoff envelope of the respawn loop (see :meth:`_revive`); tests
        #: shrink these to keep the crash-loop regression fast.
        self.respawn_backoff_base = respawn_backoff_base
        self.respawn_backoff_cap = respawn_backoff_cap
        self._handles = [
            _WorkerHandle(index, self.store_root, startup_timeout)
            for index in range(num_workers)
        ]
        self._idle: "Queue[_WorkerHandle]" = Queue()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._retries = 0
        self._respawn_storms = 0
        self._closed = False
        self._startup_timeout = startup_timeout

    def start(self) -> None:
        """Spawn every worker, then wait until each answers a ping.

        The ping is the readiness barrier: it proves the socket is up and
        the initial generation loaded before any HTTP request is accepted.
        Every child is started before any is waited on, so they load the
        generation concurrently.
        """
        for handle in self._handles:
            handle.start()
        for handle in self._handles:
            handle.wait_ready(self._startup_timeout)
            self._idle.put(handle)

    @property
    def worker_pids(self) -> List[Optional[int]]:
        """The live worker process ids, in pool-slot order."""
        return [handle.pid for handle in self._handles]

    def _checkout(self) -> _WorkerHandle:
        while True:
            try:
                handle = self._idle.get(timeout=1.0)
            except Empty:
                if self._closed:
                    raise RuntimeError("the worker pool is closed") from None
                continue
            return handle

    def topk(
        self,
        entities: List[str],
        k: int,
        approximation: float,
        traces: Optional[List[Optional[SpanContext]]] = None,
    ) -> List[Dict[str, object]]:
        """Answer one batch of queries on one worker; respawn-and-retry on death.

        Returns the per-query payload dicts in request order.  Raises
        ``KeyError`` for an entity unknown to the worker's generation and
        ``RuntimeError`` for transport-level failures that survived every
        retry -- both mapped by the HTTP layer exactly like the in-process
        daemon's errors.

        ``traces`` (aligned with ``entities``; ``None`` entries for
        unsampled queries) gives each sampled query a ``worker.request``
        span covering the round-trip, with the worker's own spans stitched
        under it (:func:`~repro.server.workers.stitch_spans`).  A retried
        attempt gets fresh spans; the failed attempt's span is closed with
        the error.
        """
        request: Dict[str, object] = {
            "op": "topk",
            "entities": list(entities),
            "k": int(k),
            "approximation": float(approximation),
        }
        if traces is not None and not any(t is not None for t in traces):
            traces = None
        attempts = self.num_workers + 1
        last_error: Optional[ReadProcessError] = None
        for attempt in range(attempts):
            handle = self._checkout()
            spans = None
            if traces is not None:
                # Fresh spans (and therefore fresh parent ids on the wire)
                # per attempt: a worker's exported spans must hang under
                # the round-trip that actually produced them.
                spans, request["traces"] = begin_remote_spans(
                    traces, "worker.request", worker=handle.index, attempt=attempt
                )
            try:
                reply = handle.client.request(request)
            except ReadProcessError as exc:
                last_error = exc
                if spans is not None:
                    for span in spans:
                        if span is not None:
                            span.end(error=type(exc).__name__)
                with self._stats_lock:
                    self._retries += 1
                # Respawn in the background so the retry (on another worker)
                # is not serialised behind process start-up; the handle
                # returns to the idle queue once it answers a ping.
                threading.Thread(
                    target=self._revive, args=(handle,), daemon=True
                ).start()
                continue
            else:
                self._idle.put(handle)
            with self._stats_lock:
                self._requests += 1
            if spans is not None:
                stitch_spans(reply, traces, spans)
            error = reply.get("error")
            if error is not None:
                status = reply.get("status")
                if status == 404:
                    raise KeyError(str(error))
                raise RuntimeError(str(error))
            return list(reply["results"])
        raise RuntimeError(
            f"no worker answered after {attempts} attempts: {last_error}"
        )

    def _revive(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker and return it to the idle queue when ready.

        A worker that dies *on startup* (broken interpreter, missing store,
        exhausted memory) would otherwise be respawned in a hot loop;
        consecutive failures instead back off exponentially (with jitter, so
        several reviving slots do not synchronise) and a streak long enough
        to count as a respawn storm increments the pool's
        ``respawn_storms`` counter -- visible in ``/v1/stats`` and
        ``/metrics`` so operators see the crash loop instead of the load
        average.
        """
        backoff = ExponentialBackoff(
            base=self.respawn_backoff_base, cap=self.respawn_backoff_cap
        )
        while not self._closed:
            try:
                handle.start()
                handle.wait_ready(self._startup_timeout)
            except OSError:  # a failed spawn, or ReadProcessError (one too)
                # Leave a (growing) beat and try again; a worker slot must
                # not leak even when the binary is persistently broken.
                delay = backoff.next_delay()
                if backoff.failures == ExponentialBackoff.STORM_THRESHOLD:
                    with self._stats_lock:
                        self._respawn_storms += 1
                time.sleep(delay)
                continue
            break
        if self._closed:
            handle.close()
        else:
            self._idle.put(handle)

    def topk_batch(
        self,
        entities: List[str],
        k: int,
        approximation: float,
        traces: Optional[List[Optional[SpanContext]]] = None,
    ) -> List[Dict[str, object]]:
        """Scatter one batch over the pool, gather in request order.

        The batch is split into up to ``num_workers`` contiguous chunks so
        its queries run concurrently in separate processes; each chunk is a
        normal :meth:`topk` call with the same retry discipline (``traces``
        is sliced alongside).  Chunks may individually observe a newer
        generation than their siblings -- the documented batch-form
        relaxation of the consistency model.
        """
        if len(entities) <= 1 or self.num_workers == 1:
            return self.topk(entities, k, approximation, traces=traces)
        chunk_count = min(self.num_workers, len(entities))
        bounds = [
            (len(entities) * part) // chunk_count for part in range(chunk_count + 1)
        ]
        chunks = [entities[bounds[part] : bounds[part + 1]] for part in range(chunk_count)]
        trace_chunks = [
            traces[bounds[part] : bounds[part + 1]] if traces is not None else None
            for part in range(chunk_count)
        ]

        def run_chunk(part: int) -> List[Dict[str, object]]:
            return self.topk(chunks[part], k, approximation, traces=trace_chunks[part])

        gathered: List[Dict[str, object]] = []
        for part_results in fan_out_queries(run_chunk, chunk_count, workers=chunk_count):
            gathered.extend(part_results)
        return gathered

    def stats_snapshot(self) -> Dict[str, object]:
        """Pool counters: requests, retries, respawns, storms."""
        with self._stats_lock:
            return {
                "workers": self.num_workers,
                "requests": self._requests,
                "retries": self._retries,
                "respawns": sum(handle.respawns for handle in self._handles),
                "respawn_storms": self._respawn_storms,
            }

    def health(self) -> Dict[str, object]:
        """``/v1/healthz`` keys: pool size and cumulative respawns."""
        return {
            "workers": self.num_workers,
            "respawns": self.stats_snapshot()["respawns"],
        }

    def stats(self) -> Dict[str, object]:
        """The ``workers`` section of ``/v1/stats``."""
        return {"workers": self.stats_snapshot()}

    def close(self) -> None:
        """Terminate every worker (SIGTERM, reap) and reject further use."""
        self._closed = True
        for handle in self._handles:
            handle.close()


class GenerationPublisher(ServingPart):
    """The owner side of the publish/adopt protocol, plugged into a server.

    Owns the generation store the read processes adopt from, the
    durability stamp written into every publish, the initial publish, and
    the flush hook that turns each index-changing flush into the next
    generation.  ``store_root`` is the store directory (a private
    temporary one, removed on :meth:`close`, when not given);
    ``delta_limit`` is the delta-chain length before a full snapshot is
    forced (``0`` publishes every generation full).
    """

    #: Prefix of a private store's temporary directory.
    temp_prefix = "repro-generations-"

    def __init__(
        self,
        engine,
        store_root: Optional[PathLikeT] = None,
        delta_limit: int = DELTA_CHAIN_LIMIT,
    ) -> None:
        self.engine = engine
        self.delta_limit = delta_limit
        self.ingestor = None
        self._owns_root = store_root is None
        self.root = (
            Path(tempfile.mkdtemp(prefix=self.temp_prefix))
            if store_root is None
            else Path(store_root)
        )
        try:
            self._open_stores()
        except BaseException:
            self.close()  # a rejected delta_limit or engine leaves no temp dir
            raise

    def _open_stores(self) -> None:
        self.store = GenerationStore(self.root, delta_limit=self.delta_limit)

    def _shares(self, appended: List[object]) -> List[tuple]:
        """``(store, engine, events)`` per store: what each one snapshots,
        and its share of a flush's appended events."""
        return [(self.store, self.engine, appended)]

    def attach(self, ingestor) -> None:
        """Publish the engine as loaded, then follow ``ingestor``'s flushes.

        Called by the server under the engine lock, before the read
        processes are spawned, so they have a generation to adopt.
        """
        self.ingestor = ingestor
        meta = self._durability_meta()
        for store, engine, _ in self._shares([]):
            store.publish(engine, extra_meta=meta)
        ingestor.add_flush_hook(self._publish_after_flush)

    def _durability_meta(self) -> Dict[str, object]:
        """WAL position and stream state stamped into every publish.

        Crash recovery restores the newest generation, seeds the stream
        state, and replays WAL records with ``seq`` greater than
        ``wal_seq`` -- see :func:`repro.server.recovery.replay_wal_into_engine`
        and ``docs/DURABILITY.md``.
        """
        wal = self.ingestor.wal
        return {
            "wal_seq": wal.last_seq if wal is not None else 0,
            "stream": self.ingestor.stream_state(),
        }

    def _publish_after_flush(self, report) -> None:
        """Flush hook: publish a generation when the flush changed the index.

        Runs under the engine lock (flushes hold it), so the snapshot is a
        consistent point-in-time image.  Publishing *before* the events
        response is written is what makes a client's read-your-write
        sequential: by the time the client learns its flush happened, every
        reader adopting at the next request boundary sees it.

        Index-changing flushes publish a *delta* generation when the chain
        allows it -- the flush's own operations as a small JSON document --
        and a full snapshot otherwise (every ``delta_limit`` deltas).
        Readers standing on the chain catch up in place; see
        :mod:`repro.server.generation`.  A store whose share of the flush
        is empty (per-shard stores only) skips the publish, so per-shard
        generation counters advance independently.

        There is no closed guard: the server's final flush on shutdown
        must publish too -- the newest generation always holds every
        accepted write (the clean-drain guarantee the CI smoke checks).
        """
        changed = (
            report.events
            or (report.expiry is not None and report.expiry.expired_records)
            or report.compacted
        )
        if not changed:
            return
        meta = self._durability_meta()
        for store, engine, events in self._shares(list(report.appended)):
            delta = SnapshotDelta(
                events=events, cutoff=report.cutoff, compacted=bool(report.compacted)
            )
            if not delta.is_empty():
                store.publish_update(engine, delta=delta, extra_meta=meta)

    def health(self) -> Dict[str, object]:
        """``/v1/healthz``: the generation queries observe at minimum."""
        return {"generation": self.store.generation}

    def stats(self) -> Dict[str, object]:
        """The ``generation`` entry of ``/v1/stats`` and the seconds since
        the last publish (``None`` before the first)."""
        published = self.store.last_publish_monotonic
        return {
            "generation": self.store.generation,
            "generation_age_seconds": (
                time.monotonic() - published if published is not None else None
            ),
        }

    def close(self) -> None:
        """Remove the store directory when it was a private temporary one."""
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)


def worker_tier(
    engine,
    workers: int = 2,
    store_root: Optional[PathLikeT] = None,
    startup_timeout: float = 60.0,
    delta_limit: int = DELTA_CHAIN_LIMIT,
) -> Dict[str, ServingPart]:
    """The ``--workers N`` tier as :class:`~repro.server.app.TraceServer`
    keywords: ``TraceServer(engine, **worker_tier(engine, workers=2))``.

    A :class:`WorkerPool` of ``workers`` processes reading the store a
    :class:`GenerationPublisher` over ``engine`` publishes into.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    publisher = GenerationPublisher(engine, store_root, delta_limit)
    return {
        "backend": WorkerPool(publisher.root, workers, startup_timeout=startup_timeout),
        "publisher": publisher,
    }
