"""The read process: ``python -m repro.server.workers``.

One read process answers top-k queries over an immutable snapshot
generation -- the one program both multi-process tiers run.  It listens
on TCP under its replica name and announces its ephemeral port through a
port file.  A ``--workers N`` replica holds the whole engine and resolves
query entities itself; a ``--cluster`` shard replica answers queries
whose ST-cell sequences travel with the request, because its dataset
holds one partition.  Frames, ops, both ``topk`` shapes, the
``traces``/``spans`` keys and the 400/404/500 rules are specified once,
in ``docs/SERVING.md`` ("The read process").

The process restores a private engine from the newest generation of its
:class:`~repro.server.generation.GenerationStore` (columnar arrays
memory-mapped, shared through the page cache) and never sees writes: it
adopts a newer generation **at a request boundary**, re-reading the
store's ``CURRENT`` file before each reply and catching up along the
delta chain, so a request received after a publish observes at least that
generation.  Connections are served one thread each, adoption and search
serialised under one lock; parallelism comes from running several
processes.  Replies carry JSON floats, which round-trip exactly, so a
relayed payload re-encodes to bytes identical to an in-process response.

The process holds no state the store cannot restore: a parent answers a
dead one by respawning it
(:class:`~repro.cluster.supervisor.ManagedReplica`) and failing the
idempotent request over.  The parent's client half lives here:
:class:`ReadClient` is the one way a parent sends a frame and reads its
reply (``docs/SERVING.md``, "Client side").
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import struct
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pruning import InvalidQuerySequence
from repro.obs.trace import ActiveTrace, Span, SpanContext
from repro.server import protocol
from repro.server.generation import GenerationStore
from repro.storage.snapshot import SnapshotError
from repro.traces.events import CellSequence, STCell

__all__ = [
    "QueryWorker",
    "ReadClient",
    "ReadProcessError",
    "bad_request_reply",
    "begin_remote_spans",
    "decode_sequence",
    "encode_sequence",
    "main",
    "recv_frame",
    "send_frame",
    "stitch_spans",
]

#: Upper bound on one frame; far above any legal request
#: (MAX_ITEMS_PER_REQUEST entities) and keeps a corrupt length prefix from
#: provoking a giant allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Cap on a relayed error message: a malformed request can echo
#: arbitrarily large input back through the exception text.
MAX_ERROR_CHARS = 512

_LENGTH = struct.Struct(">I")

#: A TCP ``(host, port)`` pair.
Address = Tuple[str, int]


def send_frame(connection: socket.socket, payload: Dict[str, object]) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    connection.sendall(_LENGTH.pack(len(body)) + body)


def recv_frame(connection: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exactly(connection, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the cap")
    body = _recv_exactly(connection, length, eof_ok=False)
    document = json.loads(body.decode("utf-8"))
    if not isinstance(document, dict):
        raise ConnectionError("frame payload must be a JSON object")
    return document


def _recv_exactly(connection: socket.socket, count: int, eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = connection.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_sequence(sequence: CellSequence) -> List[List[List[object]]]:
    """``CellSequence`` -> JSON shape: per level, ``(time, unit)``-sorted pairs."""
    return [
        [[cell.time, cell.unit] for cell in sorted(level)]
        for level in sequence.levels
    ]


def decode_sequence(payload: List[List[List[object]]]) -> CellSequence:
    """Rebuild the :class:`CellSequence` encoded by :func:`encode_sequence`."""
    return CellSequence(
        levels=tuple(
            frozenset(STCell(int(time), str(unit)) for time, unit in level)
            for level in payload
        )
    )


def _error_reply(exc: Exception, status: int) -> Dict[str, object]:
    return {"error": f"{type(exc).__name__}: {exc}"[:MAX_ERROR_CHARS], "status": status}


def bad_request_reply(exc: Exception) -> Dict[str, object]:
    """The reply frame for a request that could not be decoded: status 400."""
    return _error_reply(exc, 400)


# ----------------------------------------------------------------------
# Trace propagation: the sending and the receiving half
# ----------------------------------------------------------------------
def begin_remote_spans(
    traces: Sequence[Optional[SpanContext]], name: str, **attributes: object
) -> Tuple[List[Optional[Span]], List[Optional[Dict[str, str]]]]:
    """Open one ``name`` span per sampled query of a frame about to be sent.

    Returns the spans (``None`` for unsampled queries) and the aligned
    ``{"trace_id", "span_id"}`` descriptors to ship under the frame's
    ``"traces"`` key, so the read process's spans hang under the
    round-trip that produced them.
    """
    spans = [
        trace.begin(name, **attributes) if trace is not None else None
        for trace in traces
    ]
    descriptors = [
        {"trace_id": trace.trace.trace_id, "span_id": span.span_id}
        if span is not None
        else None
        for trace, span in zip(traces, spans)
    ]
    return spans, descriptors


def stitch_spans(
    reply: Dict[str, object],
    traces: Sequence[Optional[SpanContext]],
    spans: Sequence[Optional[Span]],
) -> None:
    """Re-base a reply's exported spans onto the round-trip spans; end those."""
    exported = reply.get("spans")
    exported = exported if isinstance(exported, dict) else {}
    generation = reply.get("generation")
    for index, (trace, span) in enumerate(zip(traces, spans)):
        if trace is None or span is None:
            continue
        remote = exported.get(str(index))
        if remote:
            trace.trace.attach_remote(remote, anchor=span)
        span.end(generation=generation)


def _propagated_traces(
    descriptors: object, num_queries: int, process: str
) -> List[Optional[ActiveTrace]]:
    """Build standalone traces from a frame's ``"traces"`` descriptors.

    An absent key means nothing is sampled.  A present one is decoded like
    every other field: a value that is not a list aligned with the
    queries, or an entry that is neither ``None`` nor a pair of string
    ids, raises (the caller answers 400).
    """
    if descriptors is None:
        return [None] * num_queries
    if not isinstance(descriptors, list) or len(descriptors) != num_queries:
        raise ValueError(f"'traces' must be a list of {num_queries} entries")
    traces: List[Optional[ActiveTrace]] = []
    for descriptor in descriptors:
        if descriptor is None:
            traces.append(None)
            continue
        trace_id, span_id = descriptor["trace_id"], descriptor["span_id"]
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            raise TypeError("'traces' ids must be strings")
        traces.append(
            ActiveTrace("worker.topk", trace_id=trace_id, parent_id=span_id, process=process)
        )
    return traces


class QueryWorker:
    """The read-process loop: adopt generations, answer framed requests.

    ``address`` is the TCP ``(host, port)`` pair to listen on (port ``0``
    = ephemeral).  ``name`` is what the
    process calls itself in ``status`` replies and on exported spans.
    """

    def __init__(
        self,
        store_root: str,
        address: Address,
        name: str = "worker",
        startup_timeout: float = 60.0,
    ) -> None:
        self.store = GenerationStore(store_root)
        self.address = address
        self.name = name
        self.startup_timeout = startup_timeout
        self.generation = 0
        self.engine = None
        self.requests_handled = 0
        #: Serialises generation adoption and searching: the engine object
        #: is swapped on adoption, and searches mutate per-search caches.
        self._engine_lock = threading.Lock()
        self._stopping = False

    # ------------------------------------------------------------------
    # Generation adoption
    # ------------------------------------------------------------------
    def adopt_latest(self, timeout: float = 30.0) -> None:
        """Reload the engine iff a newer generation was published.

        Called (under ``_engine_lock``) before computing every reply --
        the request-boundary adoption the consistency model promises --
        and once at start-up; see :meth:`GenerationStore.adopt`.
        """
        self.generation, self.engine = self.store.adopt(
            self.engine, self.generation, timeout
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one decoded frame (every op; see ``docs/SERVING.md``)."""
        operation = request.get("op")
        if operation == "ping":
            return {"ok": True, "generation": self.generation, "pid": os.getpid()}
        if operation == "status":
            return {
                "ok": True,
                "shard": self.name,
                "generation": self.generation,
                "pid": os.getpid(),
                "requests_handled": self.requests_handled,
            }
        # The input boundary: every field an op reads off the wire is
        # decoded here, before anything acts on it.
        try:
            if operation == "sync":
                minimum = int(request.get("min_generation", 0))
            elif operation == "topk":
                if "entities" in request:
                    entities: List[str] = request["entities"]
                    if not isinstance(entities, list) or not all(
                        isinstance(entity, str) for entity in entities
                    ):
                        raise TypeError(
                            "'entities' must be a list of strings, got "
                            f"{type(entities).__name__} {entities!r}"
                        )
                    sequences = None
                elif "queries" in request:
                    entities = [str(query["entity"]) for query in request["queries"]]
                    sequences = [
                        decode_sequence(query["sequence"]) for query in request["queries"]
                    ]
                else:
                    raise KeyError("a topk frame needs 'entities' or 'queries'")
                k = int(request.get("k", 10))
                if k < 1:
                    raise ValueError(f"k must be >= 1, got {k}")
                approximation = float(request.get("approximation", 0.0))
                if not approximation >= 0.0:  # also rejects NaN
                    raise ValueError(f"approximation must be >= 0, got {approximation}")
                traces = _propagated_traces(request.get("traces"), len(entities), self.name)
            else:
                return {"error": f"unknown op {operation!r}", "status": 400}
        except (KeyError, TypeError, ValueError) as exc:
            return bad_request_reply(exc)
        if operation == "sync":
            return self._sync(minimum)
        return self._topk(entities, sequences, k, approximation, traces)

    def _sync(self, minimum: int) -> Dict[str, object]:
        """Adopt the newest generation and say whether it reaches ``minimum``."""
        with self._engine_lock:
            try:
                self.adopt_latest()
            except SnapshotError as exc:
                return {"ok": False, "generation": self.generation, "error": str(exc)}
            return {"ok": self.generation >= minimum, "generation": self.generation}

    def _topk(
        self,
        entities: List[str],
        sequences: Optional[List[CellSequence]],
        k: int,
        approximation: float,
        traces: List[Optional[ActiveTrace]],
    ) -> Dict[str, object]:
        """Adopt, then answer every query of one decoded ``topk`` frame.

        ``sequences is None`` is the ``entities`` shape: the queries are
        resolved against this process's dataset as one engine batch.
        Otherwise each query runs on the sequence that was shipped with it.
        """
        try:
            with self._engine_lock:
                adopt_spans = [
                    trace.begin("worker.adopt") for trace in traces if trace is not None
                ]
                self.adopt_latest()
                for span in adopt_spans:
                    span.end(generation=self.generation)
                contexts = [
                    trace.context() if trace is not None else None for trace in traces
                ]
                if sequences is None:
                    results = self.engine.top_k_batch(
                        entities, k=k, approximation=approximation, traces=contexts
                    ).results
                else:
                    results = [
                        self.engine.searcher.search(
                            entity,
                            k,
                            approximation=approximation,
                            query_sequence=sequence,
                            trace=context,
                        )
                        for entity, sequence, context in zip(entities, sequences, contexts)
                    ]
                generation = self.generation
        except InvalidQuerySequence as exc:
            return bad_request_reply(exc)
        except KeyError as exc:
            # The dataset's own message: "unknown entity 'name'".
            return {"error": str(exc.args[0])[:MAX_ERROR_CHARS], "status": 404}
        except Exception as exc:  # noqa: BLE001 - relayed to the parent
            return _error_reply(exc, 500)
        reply: Dict[str, object] = {
            "generation": generation,
            "results": [protocol.topk_result_payload(result) for result in results],
        }
        exported = {
            str(index): trace.export_spans()
            for index, trace in enumerate(traces)
            if trace is not None
        }
        if exported:
            reply["spans"] = exported
        return reply

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def _bind(self, port_file: Optional[str]) -> socket.socket:
        """The listening socket for ``address``; records the bound port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(tuple(self.address))
        listener.listen(16)
        if port_file:
            # After listen(): a parent that reads the port may connect at once.
            staged = Path(f"{port_file}.tmp")
            staged.write_text(str(listener.getsockname()[1]), encoding="utf-8")
            os.replace(staged, port_file)
        return listener

    def run(self, port_file: Optional[str] = None) -> int:
        """Load the initial generation, bind, serve until SIGTERM/SIGINT.

        ``port_file`` (written atomically once a TCP listener is bound) is
        how parents discover an ephemeral port: request port ``0``, read
        the file.
        """
        with self._engine_lock:
            self.adopt_latest(timeout=self.startup_timeout)
        listener = self._bind(port_file)

        def request_stop(signum, frame) -> None:
            self._stopping = True
            # Closing the listener pops the blocking accept() below.
            try:
                listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)

        try:
            while not self._stopping:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    break  # listener closed by request_stop
                threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name=f"{self.name}-conn",
                    daemon=True,
                ).start()
        finally:
            try:
                listener.close()
            except OSError:
                pass
        return 0

    def _serve_connection(self, connection: socket.socket) -> None:
        """Answer frames until the peer disconnects (or we are stopping)."""
        with connection:
            while not self._stopping:
                try:
                    request = recv_frame(connection)
                except (ConnectionError, OSError, ValueError):
                    return
                if request is None:
                    return
                reply = self.handle(request)
                self.requests_handled += 1
                try:
                    send_frame(connection, reply)
                except (BrokenPipeError, ConnectionResetError, OSError):
                    return


class ReadProcessError(ConnectionError):
    """An exchange with a read process, or the wait for one to listen, failed."""


class ReadClient:
    """One persistent framed connection to one read process: the client half.

    ``address`` is the TCP ``(host, port)`` pair the process listens on and
    ``name`` what errors call it.
    ``connect_timeout`` bounds one connect; ``request_timeout`` bounds one
    exchange unless :meth:`request` is given its own ``timeout``.  The
    connection is opened by the first exchange and kept.

    The invariant every retry and hedge above this class rests on is
    written here once: an exchange returns the reply to *its* request, or
    raises :class:`ReadProcessError` with the socket closed.  A connection
    abandoned part-way could still deliver that exchange's reply later;
    closing it means the next exchange starts at a frame boundary on a
    fresh connection and can never read a stale answer.
    """

    def __init__(
        self,
        address: Address,
        name: str,
        connect_timeout: float,
        request_timeout: float,
    ) -> None:
        self.address = address
        self.name = name
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def __enter__(self) -> "ReadClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def set_address(self, address: Address) -> None:
        """Point at a restarted process (ephemeral ports move); drops the socket."""
        with self._lock:
            self._close()
            self.address = address

    def request(
        self, payload: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """One framed exchange; raises :class:`ReadProcessError` on any failure.

        A refused or timed-out connect, a reset, a torn or oversized frame,
        a reply that is not a JSON object, EOF before the reply and an
        exhausted ``timeout`` all take the one failure path: close, raise.
        """
        budget = self.request_timeout if timeout is None else timeout
        if budget <= 0:
            raise ReadProcessError(f"{self.name}: no time left in the deadline")
        with self._lock:
            try:
                if self._sock is None:
                    self._connect(min(self.connect_timeout, budget))
                self._sock.settimeout(budget)
                send_frame(self._sock, payload)
                reply = recv_frame(self._sock)
                if reply is None:
                    raise ConnectionError("connection closed before a reply")
                return reply
            except (OSError, ValueError) as exc:
                self._close()
                raise ReadProcessError(f"{self.name} at {self.address}: {exc}") from exc

    def _connect(self, timeout: float) -> None:
        self._sock = socket.create_connection(tuple(self.address), timeout=timeout)

    def close(self) -> None:
        """Drop the connection (the next exchange opens a fresh one)."""
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the read-process subprocess; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.server.workers",
        description="one read process: a replica of `repro serve --workers N` or "
        "`repro serve --cluster R` / `repro cluster shard`",
    )
    parser.add_argument("--store", required=True, help="generation store directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound TCP port here (atomic) so parents can discover it",
    )
    parser.add_argument(
        "--shard", default="worker", help="process name (for status and spans)"
    )
    parser.add_argument(
        "--startup-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for the first published generation",
    )
    args = parser.parse_args(argv)
    worker = QueryWorker(
        args.store,
        (args.host, args.port),
        name=args.shard,
        startup_timeout=args.startup_timeout,
    )
    return worker.run(port_file=args.port_file)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
