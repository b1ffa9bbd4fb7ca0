"""One shard-server process: ``python -m repro.cluster.shard_server``.

A shard server is the cluster tier's unit of replication: one OS process
serving one shard's snapshot generations over TCP, speaking the framed
operations of :mod:`repro.cluster.wire`.  It is the network-facing sibling
of the Unix-socket :class:`~repro.server.workers.QueryWorker` and keeps
its consistency model: the engine is restored from the shard's
:class:`~repro.server.generation.GenerationStore` (columnar arrays
memory-mapped), writes never reach it directly, and newly published
generations are adopted **at a request boundary** -- cheaply along the
delta chain (:meth:`GenerationStore.catch_up`) when possible, by a full
snapshot load otherwise.  That adoption path *is* the replica catch-up
protocol: a replica restarted after a crash reloads the newest generation,
replays the published delta suffix, and then proves it has caught up by
answering a ``sync`` op with a high-enough generation number before the
coordinator lets it rejoin (see ``docs/DISTRIBUTED.md``).

Unlike the worker, the shard server handles connections in threads (the
coordinator holds one persistent connection per replica and hedged
requests open a second), with adoption and search serialised under one
lock -- correctness first; parallelism across replicas, not within one.

Fault injection is built in rather than bolted on: the ``chaos`` op sets
flags -- ``delay`` (seconds to sleep before every reply), ``drop``
(tear down the connection instead of answering, N times), ``refuse``
(accept and immediately close new connections) -- that the chaos battery
uses to script slow replies, dropped sockets, and refused connects
against a *real* serving process.  The flags default to off and exist
only in memory; a restarted process is always clean.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.wire import decode_sequence
from repro.core.pruning import InvalidQuerySequence
from repro.server import protocol
from repro.server.generation import GenerationStore
from repro.server.workers import bad_request_reply, recv_frame, send_frame
from repro.storage.snapshot import SnapshotError

__all__ = ["ShardServer", "main"]


class _ChaosFlags:
    """In-memory fault-injection switches, mutated by the ``chaos`` op."""

    def __init__(self) -> None:
        self.delay_seconds = 0.0
        self.drop_requests = 0
        self.refuse_connections = False
        self._lock = threading.Lock()

    def configure(self, request: Dict[str, object]) -> Dict[str, object]:
        with self._lock:
            if "delay" in request:
                self.delay_seconds = max(0.0, float(request["delay"]))
            if "drop" in request:
                self.drop_requests = max(0, int(request["drop"]))
            if "refuse" in request:
                self.refuse_connections = bool(request["refuse"])
            return self.snapshot_locked()

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return self.snapshot_locked()

    def snapshot_locked(self) -> Dict[str, object]:
        return {
            "delay": self.delay_seconds,
            "drop": self.drop_requests,
            "refuse": self.refuse_connections,
        }

    def should_refuse(self) -> bool:
        with self._lock:
            return self.refuse_connections

    def reply_delay(self) -> float:
        with self._lock:
            return self.delay_seconds

    def take_drop(self) -> bool:
        """Consume one drop token: ``True`` means tear down this exchange."""
        with self._lock:
            if self.drop_requests > 0:
                self.drop_requests -= 1
                return True
            return False


class ShardServer:
    """Serve one shard's generations over framed TCP operations."""

    def __init__(
        self,
        store_root: str,
        shard: str = "shard-000",
        host: str = "127.0.0.1",
        port: int = 0,
        startup_timeout: float = 60.0,
    ) -> None:
        self.store = GenerationStore(store_root)
        self.shard = shard
        self.host = host
        self.port = int(port)
        self.startup_timeout = startup_timeout
        self.generation = 0
        self.engine = None
        self.chaos = _ChaosFlags()
        self.requests_handled = 0
        #: Serialises generation adoption and searching: the engine object
        #: is swapped on adoption, and searches mutate per-search caches.
        self._engine_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Generation adoption
    # ------------------------------------------------------------------
    def adopt_latest(self, timeout: float = 30.0) -> None:
        """Reload iff newer (:meth:`GenerationStore.adopt`).

        Caller holds ``_engine_lock``.
        """
        self.generation, self.engine = self.store.adopt(
            self.engine, self.generation, timeout
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one decoded frame (all ops except connection teardown)."""
        operation = request.get("op")
        if operation == "ping":
            return {"ok": True, "generation": self.generation, "pid": os.getpid()}
        if operation == "status":
            return {
                "ok": True,
                "shard": self.shard,
                "generation": self.generation,
                "pid": os.getpid(),
                "requests_handled": self.requests_handled,
                "chaos": self.chaos.snapshot(),
            }
        if operation == "chaos":
            return {"ok": True, "chaos": self.chaos.configure(request)}
        if operation == "sync":
            minimum = int(request.get("min_generation", 0))
            with self._engine_lock:
                try:
                    self.adopt_latest()
                except SnapshotError as exc:
                    return {"ok": False, "generation": self.generation, "error": str(exc)}
                return {"ok": self.generation >= minimum, "generation": self.generation}
        if operation != "topk":
            return {"error": f"unknown op {operation!r}", "status": 400}
        try:
            queries = [
                (str(query["entity"]), decode_sequence(query["sequence"]))
                for query in request["queries"]
            ]
            k = int(request.get("k", 10))
            approximation = float(request.get("approximation", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            return bad_request_reply(exc)
        try:
            with self._engine_lock:
                self.adopt_latest()
                results = [
                    self.engine.searcher.search(
                        entity, k, approximation=approximation, query_sequence=sequence
                    )
                    for entity, sequence in queries
                ]
        except InvalidQuerySequence as exc:
            return bad_request_reply(exc)
        except Exception as exc:  # noqa: BLE001 - relayed to the coordinator
            return {"error": f"{type(exc).__name__}: {exc}", "status": 500}
        return {
            "generation": self.generation,
            "results": [protocol.topk_result_payload(result) for result in results],
        }

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def run(self, port_file: Optional[str] = None) -> int:
        """Restore the shard, bind TCP, serve until SIGTERM/SIGINT.

        ``port_file`` (written atomically once the listener is bound) is
        how parents discover an ephemeral port: request ``port=0``, read
        the file.
        """
        with self._engine_lock:
            self.adopt_latest(timeout=self.startup_timeout)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self.port = listener.getsockname()[1]
        self._listener = listener
        if port_file:
            staged = Path(f"{port_file}.tmp")
            staged.write_text(str(self.port), encoding="utf-8")
            os.replace(staged, port_file)

        def request_stop(signum, frame) -> None:
            self._stopping = True
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
                if self.chaos.should_refuse():
                    connection.close()
                    continue
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name=f"{self.shard}-conn",
                    daemon=True,
                )
                thread.start()
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
                if self.chaos.take_drop():
                    return  # injected fault: vanish instead of answering
                delay = self.chaos.reply_delay()
                if delay:
                    time.sleep(delay)
                reply = self.handle(request)
                self.requests_handled += 1
                try:
                    send_frame(connection, reply)
                except (BrokenPipeError, ConnectionResetError, OSError):
                    return


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the shard-server subprocess; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.shard_server",
        description="one shard-server replica of the distributed serving tier "
        "(spawned by `repro cluster` / `repro serve --cluster`; "
        "also runnable directly for development)",
    )
    parser.add_argument("--store", required=True, help="shard generation-store directory")
    parser.add_argument("--shard", default="shard-000", help="shard name (for status/metrics)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here (atomic) so parents can discover it",
    )
    parser.add_argument(
        "--startup-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for the first published generation",
    )
    args = parser.parse_args(argv)
    server = ShardServer(
        args.store,
        shard=args.shard,
        host=args.host,
        port=args.port,
        startup_timeout=args.startup_timeout,
    )
    return server.run(port_file=args.port_file)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
