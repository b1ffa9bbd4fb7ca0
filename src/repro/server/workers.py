"""The read process: ``python -m repro.server.workers``.

One read process is one OS process answering top-k queries over an
immutable snapshot generation -- the unit both multi-process tiers are
built from, and the only one either of them runs.  A ``repro serve
--workers N`` worker listens on a Unix-domain socket and resolves query
entities against its own (full) dataset; a cluster shard replica
(``repro serve --cluster R``, ``repro cluster shard``) listens on TCP under
its replica name and answers queries whose ST-cell sequences travel with
the request, because its dataset holds one partition only.  The frame
format, the ops, both ``topk`` frame shapes, the ``traces``/``spans`` keys
and the 400/404/500 rules are specified once, in ``docs/SERVING.md``
("The read process").

The process owns a private engine restored from the newest generation of
its :class:`~repro.server.generation.GenerationStore` (columnar arrays
memory-mapped, so all readers of one store share one physical copy through
the page cache).  It never sees writes: the owner applies those and
publishes a new generation, which the read process adopts **at a request
boundary** -- before computing each reply it re-reads the store's
``CURRENT`` file (one small-file read) and catches up along the delta
chain, or reloads, when the generation moved.  A request received after a
publish therefore always observes at least that generation, and a replica
restarted after a crash proves it has caught up by answering ``sync``
before the supervisor lets it rejoin (``docs/DISTRIBUTED.md``).

Connections are served one thread each, with adoption and search
serialised under one lock -- correctness first; parallelism comes from
running several processes, not from threads inside one.  Replies carry
JSON floats, which round-trip exactly (``repr``), so a parent re-encoding
a relayed payload with :func:`repro.server.protocol.dumps` produces bytes
identical to an in-process response -- the equivalence suite pins this.

The process is deliberately crash-oblivious: it holds no state the store
cannot restore, so a parent answers a dead one by respawning it
(:class:`ReadProcess`) and retrying the (idempotent, read-only) request
elsewhere.  The parent's half lives here too: :class:`ReadClient` is the
one way either tier sends a frame and reads its reply (``docs/SERVING.md``,
"Client side").
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pruning import InvalidQuerySequence
from repro.obs.trace import ActiveTrace, Span, SpanContext
from repro.server import protocol
from repro.server.generation import GenerationStore
from repro.storage.snapshot import SnapshotError
from repro.traces.events import CellSequence, STCell

__all__ = [
    "QueryWorker",
    "ReadClient",
    "ReadProcess",
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

#: A Unix socket path, or a TCP ``(host, port)`` pair.
Address = Union[str, Tuple[str, int]]


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

    ``address`` is where to listen -- a Unix socket path, or a TCP
    ``(host, port)`` pair (port ``0`` = ephemeral).  ``name`` is what the
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
        """The listening socket for ``address``; TCP records the bound port."""
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except FileNotFoundError:
                pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.address)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(tuple(self.address))
        listener.listen(16)
        if port_file and not isinstance(self.address, str):
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
            if isinstance(self.address, str):
                try:
                    os.unlink(self.address)
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

    ``address`` is where the process listens (a Unix socket path or a TCP
    ``(host, port)`` pair) and ``name`` what errors call it.
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
        # Assigned before connecting, so a failed connect is closed by the
        # caller's one failure path like everything after it.
        if isinstance(self.address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(self.address)
        else:
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


class ReadProcess:
    """One read-process child, as its parent holds it: start, await, stop.

    ``name`` is what errors call the child and ``arguments`` are
    :func:`main`'s flags.  Both tiers' process owners (the worker pool's
    handles, :class:`repro.cluster.supervisor.ManagedReplica`) are
    subclasses, so the command line, the child's import path, the wait for
    it to listen, the respawn count and the SIGTERM-then-SIGKILL escalation
    exist once.  A subclass says only how its child shows it is listening
    (:meth:`_listening`).
    """

    def __init__(self, name: str, arguments: Sequence[str]) -> None:
        self.name = name
        # Spawned via -c rather than -m: `python -m repro.server.workers`
        # would import the repro.server package (which itself imports the
        # workers module) before runpy re-executes it as __main__, tripping
        # a double-import RuntimeWarning.  The command line still contains
        # "repro.server.workers", so `pgrep -f` finds read processes.
        self.command = [
            sys.executable,
            "-c",
            "import sys; from repro.server.workers import main; sys.exit(main(sys.argv[1:]))",
            *arguments,
        ]
        #: Starts after the first -- what ``/v1/stats`` and ``/metrics`` report.
        self.respawns = 0
        self._popen: Optional[subprocess.Popen] = None

    @property
    def pid(self) -> Optional[int]:
        """The child's process id (``None`` before the first start)."""
        return self._popen.pid if self._popen is not None else None

    @property
    def returncode(self) -> Optional[int]:
        """The child's exit status (``None`` while running or never started)."""
        return self._popen.poll() if self._popen is not None else None

    def alive(self) -> bool:
        """Whether the child exists and has not exited."""
        return self._popen is not None and self._popen.poll() is None

    def start(self) -> None:
        """Start the child, terminating a previous one first."""
        self.terminate(timeout=5.0)
        env = os.environ.copy()
        # The child must import repro from the same tree as this process,
        # installed or not, whatever put that tree on this process's path.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        previous = self._popen
        self._popen = subprocess.Popen(self.command, env=env)
        if previous is not None:
            self.respawns += 1

    def _listening(self) -> Optional[Address]:
        """The child's address once it is listening, else ``None`` (one probe)."""
        raise NotImplementedError

    def wait_ready(self, timeout: float) -> Address:
        """Block until the started child is listening; return its address.

        The one wait-for-the-child loop: raises :class:`ReadProcessError`
        naming the exit status when the child died first, or the timeout
        when it passed.
        """
        deadline = time.monotonic() + timeout
        while True:
            address = self._listening()
            if address is not None:
                return address
            if not self.alive():
                raise ReadProcessError(
                    f"{self.name}: read process exited with {self.returncode} "
                    "before listening"
                )
            if time.monotonic() >= deadline:
                raise ReadProcessError(
                    f"{self.name}: read process not listening within {timeout:.0f}s"
                )
            time.sleep(0.02)

    def terminate(self, timeout: float = 10.0) -> None:
        """Clean SIGTERM shutdown, reaped; escalates to SIGKILL past ``timeout``."""
        if not self.alive():
            return
        self._popen.terminate()
        try:
            self._popen.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            self.kill()

    def kill(self) -> None:
        """SIGKILL and reap -- the chaos battery's crash primitive."""
        if self.alive():
            self._popen.kill()
            self._popen.wait()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the read-process subprocess; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.server.workers",
        description="one read process: a query worker of `repro serve --workers N` "
        "(--socket) or a shard replica of `repro serve --cluster R` / "
        "`repro cluster shard` (--host/--port)",
    )
    parser.add_argument("--store", required=True, help="generation store directory")
    parser.add_argument(
        "--socket", default=None, help="Unix socket path to serve on (else TCP)"
    )
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
        args.socket if args.socket else (args.host, args.port),
        name=args.shard,
        startup_timeout=args.startup_timeout,
    )
    return worker.run(port_file=args.port_file)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
