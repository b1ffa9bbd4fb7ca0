"""Read-only query worker process: ``python -m repro.server.workers``.

One worker is one OS process -- the unit the multi-process serving tier
uses to escape the GIL.  It owns a private engine restored from the newest
snapshot generation (columnar arrays memory-mapped, so all workers share
one physical copy through the page cache), listens on a Unix-domain socket,
and answers framed top-k requests from the front-end
(:mod:`repro.server.frontend`).  Workers never see writes: the front-end
applies those to the owner engine and publishes a new generation
(:mod:`repro.server.generation`), which the worker adopts **at a request
boundary** -- before computing each reply it re-reads the store's
``CURRENT`` file (one small-file read) and reloads when the generation
moved.  A request received after a publish therefore always observes at
least that generation.

Wire format (both directions): a 4-byte big-endian length prefix followed
by one UTF-8 JSON document.  Requests are ``{"op": "ping"}`` or
``{"op": "topk", "entities": [...], "k": int, "approximation": float}``;
replies carry the per-query payload dicts of
:func:`repro.server.protocol.topk_result_payload`, or ``{"error", "status"}``
-- 400 for a request whose fields cannot be decoded, 404 for a query entity
the dataset does not hold, 500 for anything else.  JSON round-trips floats
exactly (``repr`` round-trip), so the front-end re-encoding a relayed
payload with the canonical :func:`repro.server.protocol.dumps` produces
bytes identical to an in-process response -- the equivalence suite pins
this end to end.

**Trace propagation.**  A ``topk`` request may carry an optional
``"traces"`` list aligned with ``entities``: ``None`` for unsampled
queries, ``{"trace_id", "span_id"}`` descriptors for sampled ones.  The
worker runs those queries under standalone
:class:`~repro.obs.trace.ActiveTrace` objects seeded with the propagated
ids and ships the finished spans back under a ``"spans"`` reply key
(per-index, durations plus offsets relative to the worker's root span);
the front-end re-bases them onto its own ``worker.request`` span so the
worker's kernel stages stitch into the frontend trace.  The ``"results"``
key is computed and encoded exactly as before -- old front-ends simply
never send ``"traces"``, old workers ignore the key, and byte-identity of
responses is untouched either way.

The worker is deliberately crash-oblivious: it holds no state the store
cannot restore, so the front-end answers a dead worker by respawning it
and retrying the (idempotent, read-only) request elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import struct
import sys
from typing import Dict, List, Optional

from repro.obs.trace import ActiveTrace
from repro.server import protocol
from repro.server.generation import GenerationStore

__all__ = ["QueryWorker", "bad_request_reply", "main", "recv_frame", "send_frame"]

#: Upper bound on one frame; far above any legal request
#: (MAX_ITEMS_PER_REQUEST entities) and keeps a corrupt length prefix from
#: provoking a giant allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Cap on a relayed error message: a malformed request can echo
#: arbitrarily large input back through the exception text.
MAX_ERROR_CHARS = 512

_LENGTH = struct.Struct(">I")


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


def bad_request_reply(exc: Exception) -> Dict[str, object]:
    """The reply frame for a request that could not be decoded: status 400."""
    return {"error": f"{type(exc).__name__}: {exc}"[:MAX_ERROR_CHARS], "status": 400}


def _propagated_traces(
    descriptors: object, num_entities: int
) -> List[Optional[ActiveTrace]]:
    """Build standalone worker traces from the wire descriptors.

    Defensive by design: anything malformed -- not a list, misaligned with
    ``entities``, entries that are neither ``None`` nor id-bearing dicts --
    degrades to "untraced" rather than failing the query.  Tracing must
    never change whether a request succeeds.
    """
    traces: List[Optional[ActiveTrace]] = [None] * num_entities
    if not isinstance(descriptors, list) or len(descriptors) != num_entities:
        return traces
    for index, descriptor in enumerate(descriptors):
        if not isinstance(descriptor, dict):
            continue
        trace_id = descriptor.get("trace_id")
        span_id = descriptor.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            continue
        traces[index] = ActiveTrace(
            "worker.topk", trace_id=trace_id, parent_id=span_id, process="worker"
        )
    return traces


class QueryWorker:
    """The worker loop: adopt generations, answer framed top-k requests."""

    def __init__(self, store_root: str, socket_path: str, startup_timeout: float = 60.0) -> None:
        self.store = GenerationStore(store_root)
        self.socket_path = socket_path
        self.startup_timeout = startup_timeout
        self.generation = 0
        self.engine = None
        self._listener: Optional[socket.socket] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Generation adoption
    # ------------------------------------------------------------------
    def adopt_latest(self, timeout: float = 30.0) -> None:
        """Reload the engine iff a newer generation was published.

        Called before computing every reply (the request-boundary adoption
        the consistency model promises) and once at start-up; see
        :meth:`GenerationStore.adopt`.
        """
        self.generation, self.engine = self.store.adopt(
            self.engine, self.generation, timeout
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one decoded frame: ``ping`` or ``topk`` (adopting first)."""
        operation = request.get("op")
        if operation == "ping":
            return {"ok": True, "generation": self.generation, "pid": os.getpid()}
        if operation != "topk":
            return {"error": f"unknown op {operation!r}", "status": 400}
        try:
            entities: List[str] = list(request["entities"])
            k = int(request.get("k", 10))
            approximation = float(request.get("approximation", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            return bad_request_reply(exc)
        try:
            active_traces = _propagated_traces(request.get("traces"), len(entities))
            adopt_spans = [
                trace.begin("worker.adopt") if trace is not None else None
                for trace in active_traces
            ]
            self.adopt_latest()
            for span in adopt_spans:
                if span is not None:
                    span.end(generation=self.generation)
            contexts = None
            if any(trace is not None for trace in active_traces):
                contexts = [
                    trace.context() if trace is not None else None
                    for trace in active_traces
                ]
            results = self.engine.top_k_batch(
                entities, k=k, approximation=approximation, traces=contexts
            ).results
        except KeyError as exc:
            return {"error": f"unknown entity {exc.args[0]!r}", "status": 404}
        except Exception as exc:  # noqa: BLE001 - relayed to the front-end
            return {"error": f"{type(exc).__name__}: {exc}", "status": 500}
        reply: Dict[str, object] = {
            "generation": self.generation,
            "results": [protocol.topk_result_payload(result) for result in results],
        }
        exported = {
            str(index): trace.export_spans()
            for index, trace in enumerate(active_traces)
            if trace is not None
        }
        if exported:
            reply["spans"] = exported
        return reply

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Load the initial generation, bind the socket, serve until SIGTERM."""
        self.adopt_latest(timeout=self.startup_timeout)
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(8)
        self._listener = listener

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
                with connection:
                    self._serve_connection(connection)
        finally:
            try:
                listener.close()
            except OSError:
                pass
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        return 0

    def _serve_connection(self, connection: socket.socket) -> None:
        """Answer frames until the peer disconnects (or we are stopping)."""
        while not self._stopping:
            try:
                request = recv_frame(connection)
            except (ConnectionError, OSError, ValueError):
                return
            if request is None:
                return
            reply = self.handle(request)
            try:
                send_frame(connection, reply)
            except (BrokenPipeError, ConnectionResetError, OSError):
                return


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the worker subprocess; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.server.workers",
        description="read-only query worker of the multi-process serving tier "
        "(spawned by `repro serve --workers N`; not intended for direct use)",
    )
    parser.add_argument("--store", required=True, help="generation store directory")
    parser.add_argument("--socket", required=True, help="Unix socket path to serve on")
    parser.add_argument(
        "--startup-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for the first published generation",
    )
    args = parser.parse_args(argv)
    worker = QueryWorker(args.store, args.socket, startup_timeout=args.startup_timeout)
    return worker.run()


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
