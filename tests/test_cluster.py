"""Unit tests for the distributed serving tier's building blocks.

Each layer of :mod:`repro.cluster` is pinned in isolation here -- the
wire codec that ships query sequences, the per-replica health state
machine, the shard server's operation handling, and the replica group's failover/hedging policy (against in-test framed
TCP servers, no subprocesses), plus the one thing the cluster edge gets
from being the shared ``TraceServer``: its trace shape (one 2x1 fleet of
real shard servers).  The end-to-end behaviour -- real shard
server processes, kills, catch-up, degraded answers -- is exercised by
the chaos battery (``test_cluster_chaos.py``) and by
``repro cluster chaos`` in CI.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.cluster.chaos import ChaosController
from repro.cluster.replica import (
    ClusterConfig,
    ReplicaClient,
    ReplicaGroup,
    ShardUnavailable,
)
from repro.cluster.supervisor import ManagedReplica
from repro.obs.health import SUSPECT_THRESHOLD, NodeHealth
from repro.server import protocol
from repro.server.app import TraceServer
from repro.server.frontend import worker_tier
from repro.server.generation import GenerationStore
from repro.server.workers import (
    MAX_ERROR_CHARS,
    MAX_FRAME_BYTES,
    QueryWorker,
    ReadClient,
    ReadProcessError,
    decode_sequence,
    encode_sequence,
    recv_frame,
    send_frame,
)

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestWireCodec:
    def test_sequence_round_trips_exactly(self, small_dataset):
        for entity in ("a", "b", "e"):
            sequence = small_dataset.cell_sequence(entity)
            assert decode_sequence(encode_sequence(sequence)) == sequence

    def test_encoding_is_deterministic(self, small_dataset):
        sequence = small_dataset.cell_sequence("a")
        first = json.dumps(encode_sequence(sequence))
        second = json.dumps(encode_sequence(decode_sequence(encode_sequence(sequence))))
        assert first == second


class TestNodeHealth:
    def test_failures_escalate_live_to_suspect_to_down(self):
        health = NodeHealth("r0")
        health.record_failure()
        assert health.state == "suspect"
        assert health.is_usable and not health.is_live
        for _ in range(SUSPECT_THRESHOLD - 1):
            health.record_failure()
        assert health.state == "down"
        assert not health.is_usable

    def test_success_recovers_a_suspect(self):
        health = NodeHealth("r0")
        health.record_failure()
        health.record_success()
        assert health.state == "live"
        assert health.consecutive_failures == 0
        assert health.recoveries_total == 1

    def test_catching_up_is_a_rejoin_gate(self):
        health = NodeHealth("r0")
        health.mark_catching_up()
        # Answering a probe is not proof of catch-up: only mark_live (called
        # after generation verification) returns the node to rotation.
        health.record_success()
        assert health.state == "catching_up"
        assert not health.is_usable
        health.mark_live()
        assert health.is_live
        assert health.recoveries_total == 1

    def test_mark_down_records_an_observed_kill(self):
        health = NodeHealth("r0")
        health.mark_down()
        assert health.state == "down"
        assert not health.is_usable


class TestShardServerHandle:
    @pytest.fixture
    def shard_server(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path / "shard-000")
        store.publish(small_engine)
        return QueryWorker(
            str(tmp_path / "shard-000"), ("127.0.0.1", 0), name="shard-000"
        )

    def test_ping_and_status(self, shard_server):
        ping = shard_server.handle({"op": "ping"})
        assert ping["ok"] and ping["generation"] == 0  # nothing adopted yet
        status = shard_server.handle({"op": "status"})
        assert status["shard"] == "shard-000"

    def test_sync_adopts_and_verifies_the_generation(self, shard_server):
        reply = shard_server.handle({"op": "sync", "min_generation": 1})
        assert reply == {"ok": True, "generation": 1}
        # A generation the store has not published cannot be verified.
        behind = shard_server.handle({"op": "sync", "min_generation": 99})
        assert behind == {"ok": False, "generation": 1}

    def test_topk_answers_match_the_source_engine(
        self, shard_server, small_engine, small_dataset
    ):
        request = {
            "op": "topk",
            "queries": [
                {
                    "entity": "a",
                    "sequence": encode_sequence(small_dataset.cell_sequence("a")),
                }
            ],
            "k": 3,
            "approximation": 0.0,
        }
        reply = shard_server.handle(request)
        assert "error" not in reply
        expected = protocol.topk_result_payload(small_engine.top_k("a", k=3))
        assert reply["results"][0]["query"] == "a"
        assert reply["results"][0]["results"] == expected["results"]

    def test_unknown_op_is_a_400(self, shard_server):
        reply = shard_server.handle({"op": "frobnicate"})
        assert reply["status"] == 400
        assert "unknown op" in reply["error"]


def _spawn(replica):
    """Start ``replica``; its address once it listens (its port file is
    polled every 20 ms)."""
    replica.start()
    deadline = time.monotonic() + replica.startup_timeout
    while (address := replica._listening()) is None:
        assert replica.alive(), f"exited with {replica.returncode} before listening"
        assert time.monotonic() < deadline, "not listening within its start-up timeout"
        time.sleep(0.02)
    return address


def test_live_shard_server_answers_malformed_topk_frames_with_400(
    small_engine, small_dataset, malformed_query_sequences, tmp_path
):
    """Every op is fed straight from the wire: every malformed frame
    (``topk``, its ``traces`` key, ``sync``) and every unknown op -- the
    fault switch ``chaos`` included -- gets a bounded ``status: 400`` reply
    naming the defect, the same connection keeps serving the next
    well-formed frame, and the process keeps accepting connections."""
    GenerationStore(tmp_path / "shard-000").publish(small_engine)
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "shard-000", tmp_path / "run"
    )
    port = _spawn(replica)[1]
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as connection:

            def exchange(frame):
                send_frame(connection, frame)
                return recv_frame(connection)

            def topk(sequence, **extra):
                query = {"entity": "a", "sequence": encode_sequence(sequence)}
                return {"op": "topk", "queries": [query], "k": 3, **extra}

            good = topk(small_dataset.cell_sequence("a"))
            expected = exchange(good)["results"]
            assert expected[0]["results"] == protocol.topk_result_payload(
                small_engine.top_k("a", k=3)
            )["results"]

            malformed = [
                (topk(sequence), message)
                for sequence, message in malformed_query_sequences.values()
            ] + [
                ({"op": "topk"}, "queries"),
                ({"op": "topk", "queries": [{"entity": "a"}]}, "sequence"),
                ({"op": "topk", "queries": [{"entity": "a", "sequence": [[[4]]]}]}, "unpack"),
                ({**good, "k": "many"}, "many"),
                ({**good, "approximation": [0.1]}, "list"),
                ({**good, "k": "x" * 5000}, "invalid literal"),
                ({"op": "topk", "k": 3}, "'entities' or 'queries'"),
                ({**good, "traces": "all"}, "traces"),
                ({**good, "traces": [None, None]}, "traces"),
                ({**good, "traces": ["abc"]}, "TypeError"),
                ({**good, "traces": [{"trace_id": "abc"}]}, "span_id"),
                ({**good, "traces": [{"trace_id": "abc", "span_id": 7}]}, "strings"),
                ({"op": "sync", "min_generation": "soon"}, "soon"),
                ({"op": "sync", "min_generation": None}, "NoneType"),
                ({"op": "chaos", "refuse": True}, "unknown op"),
            ]
            for frame, message in malformed:
                reply = exchange(frame)
                assert reply["status"] == 400, reply
                assert message in reply["error"]
                assert len(reply["error"]) <= MAX_ERROR_CHARS
                assert exchange(good)["results"] == expected
        with ReadClient(("127.0.0.1", port), "shard-000-r0", 5.0, 30.0) as client:
            assert client.request({"op": "ping"})["ok"]
    finally:
        replica.terminate()
    assert not replica.alive()


def test_both_tiers_spawn_from_a_parent_without_pythonpath(small_engine, tmp_path):
    """The child gets the parent's import root from the spawn itself, not
    from an inherited ``PYTHONPATH``: a parent that only has ``src`` on
    ``sys.path`` brings up a worker-tier fleet and a cluster-tier read
    process."""
    GenerationStore(tmp_path / "store").publish(small_engine)
    script = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.cluster.supervisor import ManagedReplica
from repro.server.app import TraceServer
from repro.server.frontend import worker_tier
from repro.server.generation import GenerationStore
from repro.server.workers import ReadClient

store, run_dir = sys.argv[2], sys.argv[3]
engine = GenerationStore(store).load_current()[1]
replica = ManagedReplica("shard-000", "shard-000-r0", store, run_dir)
server = TraceServer(engine, **worker_tier(engine, workers=1))
try:
    assert server.backend.supervisor.wait_settled(60.0)
    worker = server.backend.clients["worker-r0"].request({"op": "ping"})
    replica.start()
    while replica._listening() is None:
        assert replica.alive()
        time.sleep(0.02)
    with ReadClient((replica.host, replica.port), "shard", 5.0, 30.0) as client:
        shard = client.request({"op": "ping"})
finally:
    server.close()
    replica.terminate()
print(json.dumps([worker["ok"], shard["ok"]]))
"""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-c", script, _SRC_DIR, str(tmp_path / "store"), str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == [True, True]


def test_one_read_process(small_engine, small_dataset, tmp_path, fleet_up):
    """Both tiers run ``repro.server.workers`` and nothing else."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.cluster.shard_server")

    GenerationStore(tmp_path / "store").publish(small_engine)
    server = TraceServer(small_engine, **worker_tier(small_engine, workers=1))
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "store", tmp_path / "run"
    )
    try:
        fleet_up(server)
        port = _spawn(replica)[1]
        for pid in (server.backend.managed["worker-r0"].pid, replica.pid):
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            assert b"repro.server.workers" in cmdline, cmdline

        # One process answers both frame shapes, identically.
        by_entity = {"op": "topk", "entities": ["a"], "k": 3}
        by_sequence = {
            "op": "topk",
            "queries": [
                {
                    "entity": "a",
                    "sequence": encode_sequence(small_dataset.cell_sequence("a")),
                }
            ],
            "k": 3,
        }
        with ReadClient(("127.0.0.1", port), "shard", 5.0, 30.0) as shard_client:
            for ask in (server.backend.clients["worker-r0"].request, shard_client.request):
                first, second = ask(by_entity), ask(by_sequence)
                assert "error" not in first and "error" not in second
                assert first["results"] == second["results"]
    finally:
        server.close()
        replica.terminate()

    # A read process never imports the cluster package.
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.server.workers; "
            "print([name for name in sys.modules if name.startswith('repro.cluster')])",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC_DIR},
        check=True,
    ).stdout
    assert loaded.strip() == "[]"


# ----------------------------------------------------------------------
# Replica group failover against in-test framed TCP servers
# ----------------------------------------------------------------------
class _FakeShardServer:
    """A framed peer answering with ``reply_fn(request)`` per frame.

    ``address`` is a TCP ``(host, port)`` pair (port ``0`` = ephemeral);
    ``serve`` replaces the framed reply loop with a function of the
    accepted connection (a misbehaving peer).
    """

    def __init__(self, reply_fn, address=("127.0.0.1", 0), serve=None):
        self._reply_fn = reply_fn
        if serve is not None:
            self._serve_frames = serve
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self.port = self.address[1]
        self._closed = False
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while not self._closed:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection):
        with connection:
            try:
                self._serve_frames(connection)
            except (ConnectionError, OSError, ValueError):
                return

    def _serve_frames(self, connection):
        while True:
            request = recv_frame(connection)
            if request is None:
                return
            send_frame(connection, self._reply_fn(request))

    def close(self):
        self._closed = True
        try:
            # shutdown() pops the blocked accept(), which otherwise keeps
            # the address bound after close().
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


def _dead_port() -> int:
    """A port with no listener: connects are refused."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _fast_config(**overrides) -> ClusterConfig:
    base = dict(
        connect_timeout=0.5,
        request_timeout=2.0,
        shard_deadline=5.0,
        hedge_delay=0.05,
        backoff_base=0.01,
        backoff_cap=0.05,
        max_attempts=3,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestReplicaGroup:
    def test_fails_over_from_a_dead_primary(self):
        live = _FakeShardServer(lambda request: {"ok": True, "server": "r1"})
        try:
            config = _fast_config()
            dead = ReplicaClient("r0", "127.0.0.1", _dead_port(), config=config)
            alive = ReplicaClient("r1", "127.0.0.1", live.port, config=config)
            group = ReplicaGroup("shard-000", [dead, alive], config=config)
            reply = group.request({"op": "ping"})
            assert reply["server"] == "r1"
            # The hedge answered after the primary failed: a failover.
            assert group.counters["failovers"] >= 1
            assert dead.health.state != "live"
            assert alive.health.is_live
        finally:
            live.close()

    def test_hedges_to_a_second_replica_when_the_primary_is_slow(self):
        def slow_reply(request):
            time.sleep(0.5)
            return {"ok": True, "server": "r0"}

        slow = _FakeShardServer(slow_reply)
        fast = _FakeShardServer(lambda request: {"ok": True, "server": "r1"})
        try:
            config = _fast_config()
            clients = [
                ReplicaClient("r0", "127.0.0.1", slow.port, config=config),
                ReplicaClient("r1", "127.0.0.1", fast.port, config=config),
            ]
            group = ReplicaGroup("shard-000", clients, config=config)
            reply = group.request({"op": "ping"})
            assert reply["server"] == "r1"  # the hedge won
            assert group.counters["hedges"] >= 1
            assert group.counters["failovers"] >= 1
        finally:
            slow.close()
            fast.close()

    def test_a_request_goes_to_the_least_loaded_replica(self):
        """While one replica holds a slow exchange, every further request
        goes to the idle one -- not to whichever replica rotation names
        next, where it would queue behind the slow one."""
        release = threading.Event()
        first = []

        def reply_from(name):
            def reply(request):
                if not first:
                    first.append(name)
                    release.wait(10.0)
                return {"ok": True, "server": name}

            return reply

        servers = [_FakeShardServer(reply_from(f"r{index}")) for index in range(2)]
        try:
            config = _fast_config(hedge_delay=5.0)
            clients = [
                ReplicaClient(f"r{index}", "127.0.0.1", server.port, config=config)
                for index, server in enumerate(servers)
            ]
            group = ReplicaGroup("worker", clients, config=config)
            slow = threading.Thread(target=group.request, args=({"op": "ping"},))
            slow.start()
            assert _wait_for(lambda: bool(first))
            idle = "r1" if first == ["r0"] else "r0"
            began = time.monotonic()
            for _ in range(3):
                assert group.request({"op": "ping"})["server"] == idle
            assert time.monotonic() - began < 1.0
        finally:
            release.set()
            slow.join(10.0)
            for server in servers:
                server.close()
        assert group.counters["hedges"] == 0

    def test_catching_up_replicas_are_excluded_from_rotation(self):
        served = []

        def record(request):
            served.append("r1")
            return {"ok": True, "server": "r1"}

        stale = _FakeShardServer(lambda request: {"ok": True, "server": "r0"})
        fresh = _FakeShardServer(record)
        try:
            config = _fast_config()
            clients = [
                ReplicaClient("r0", "127.0.0.1", stale.port, config=config),
                ReplicaClient("r1", "127.0.0.1", fresh.port, config=config),
            ]
            clients[0].health.mark_catching_up()
            group = ReplicaGroup("shard-000", clients, config=config)
            for _ in range(4):
                assert group.request({"op": "ping"})["server"] == "r1"
            assert len(served) == 4  # every exchange went to the live replica
        finally:
            stale.close()
            fresh.close()

    def test_every_replica_dead_raises_shard_unavailable(self):
        config = _fast_config(shard_deadline=1.0, max_attempts=2)
        clients = [
            ReplicaClient("r0", "127.0.0.1", _dead_port(), config=config),
            ReplicaClient("r1", "127.0.0.1", _dead_port(), config=config),
        ]
        group = ReplicaGroup("shard-000", clients, config=config)
        with pytest.raises(ShardUnavailable, match="shard-000"):
            group.request({"op": "ping"})
        assert group.counters["retries"] >= 1

    def test_a_scattered_batch_never_hedges_onto_a_sibling_chunk(self):
        """Chunks slower than ``hedge_delay`` stay on their own replicas:
        a sibling's replica takes a hedge only once its own chunk is
        answered and this chunk has run twice as long, so chunks of about
        the same length never double each other's work."""
        served = []

        def slow(request):
            time.sleep(0.3)
            served.append(request["entities"])
            return {
                "generation": 1,
                "results": [{"query": entity} for entity in request["entities"]],
            }

        servers = [_FakeShardServer(slow) for _ in range(2)]
        try:
            config = _fast_config()
            clients = [
                ReplicaClient(f"r{index}", "127.0.0.1", server.port, config=config)
                for index, server in enumerate(servers)
            ]
            group = ReplicaGroup("worker", clients, config=config)
            reply = group.request({"op": "topk", "entities": ["a", "b", "c"], "k": 1})
        finally:
            for server in servers:
                server.close()
        assert [row["query"] for row in reply["results"]] == ["a", "b", "c"]
        assert sorted(map(len, served)) == [1, 2]
        assert group.counters == {"requests": 2, "retries": 0, "hedges": 0, "failovers": 0}

    def test_a_chunk_on_a_stalled_replica_hedges_once_its_sibling_is_answered(self):
        """One replica stalls (a paused process answers nothing).  Its chunk
        hedges onto the sibling's replica once the sibling's own chunk is
        answered, so every batch is answered exactly within about
        ``hedge_delay`` plus one chunk's time, far inside the deadline."""
        release = threading.Event()

        def answer(request):
            return {
                "generation": 1,
                "results": [{"query": entity} for entity in request["entities"]],
            }

        def stalled(request):
            release.wait(10.0)
            return answer(request)

        servers = [_FakeShardServer(stalled), _FakeShardServer(answer)]
        try:
            config = _fast_config(shard_deadline=20.0)
            clients = [
                ReplicaClient(f"r{index}", "127.0.0.1", server.port, config=config)
                for index, server in enumerate(servers)
            ]
            group = ReplicaGroup("worker", clients, config=config)
            for batch in (["a", "b"], ["a", "b", "c", "d", "e"]):
                began = time.monotonic()
                reply = group.request({"op": "topk", "entities": batch, "k": 1})
                assert time.monotonic() - began < 1.0
                assert [row["query"] for row in reply["results"]] == batch
        finally:
            release.set()
            for server in servers:
                server.close()
        assert group.counters["hedges"] == 2  # one per batch: the stalled chunk's

    def test_group_requires_at_least_one_replica(self):
        with pytest.raises(ValueError, match="needs >= 1 replica"):
            ReplicaGroup("shard-000", [])


# ----------------------------------------------------------------------
# The one read client: the client-side frame boundary
# ----------------------------------------------------------------------
_LENGTH = struct.Struct(">I")


def _raw_reply(body: bytes, declared=None):
    """A peer that reads the request, then writes ``body`` under a length
    prefix (``declared`` bytes, by default honest) and hangs up."""

    def serve(connection):
        recv_frame(connection)
        length = len(body) if declared is None else declared
        connection.sendall(_LENGTH.pack(length) + body)

    return serve


def _oversized_prefix(connection):
    recv_frame(connection)
    connection.sendall(_LENGTH.pack(MAX_FRAME_BYTES + 1))
    connection.recv(1)  # held open: the client must hang up on the prefix alone


def _slow_stale_reply(connection):
    recv_frame(connection)
    time.sleep(0.6)
    send_frame(connection, {"ok": True, "server": "stale"})


#: How a peer can fail one exchange -> its ``serve`` (``None``: no listener).
_BROKEN_PEERS = {
    "refused connect": None,
    "accept then close": lambda connection: None,
    "EOF before the reply": recv_frame,
    "torn frame": _raw_reply(b"abc", declared=10),
    "length prefix above the cap": _oversized_prefix,
    "body is not a JSON object": _raw_reply(b"[1, 2]"),
    "body is not UTF-8 JSON": _raw_reply(b"\xff\xfe{"),
    "reply slower than the timeout": _slow_stale_reply,
}


@pytest.mark.parametrize("failure", list(_BROKEN_PEERS))
def test_read_client_fails_closed_at_a_frame_boundary(failure):
    """Every way an exchange can fail is one ``ReadProcessError`` with the
    socket closed, and the next exchange -- a healthy listener now on the
    same address -- gets *its* reply, never a stale one."""
    serve = _BROKEN_PEERS[failure]
    if serve is not None:
        broken = _FakeShardServer(None, serve=serve)
        address = broken.address
    else:
        broken = None
        address = ("127.0.0.1", _dead_port())
    client = ReadClient(address, "peer", connect_timeout=0.5, request_timeout=2.0)
    healthy = None
    try:
        with pytest.raises(ReadProcessError, match="peer"):
            client.request({"op": "ping"}, timeout=0.3)
        assert client._sock is None
        if broken is not None:
            broken.close()
        healthy = _FakeShardServer(
            lambda request: {"ok": True, "server": "healthy"}, address=address
        )
        assert client.request({"op": "ping"}) == {"ok": True, "server": "healthy"}
        assert client._sock is not None  # and the connection is kept
    finally:
        client.close()
        for server in (broken, healthy):
            if server is not None:
                server.close()
    assert client._sock is None


def test_one_read_client(small_engine, tmp_path, fleet_up):
    """Both tiers reach a read process through ``ReadClient.request`` only."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.cluster.wire")

    package = Path(repro.__file__).parent
    receives = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "recv_frame(" in line and "def recv_frame(" not in line
    ]
    # The worker's serve loop and ReadClient.request -- nothing else reads a frame.
    assert len(receives) == 2 and all(
        hit.startswith("server/workers.py:") for hit in receives
    ), receives
    connects = re.compile(r"create_connection\(|\.connect\(")
    for path in [package / "server" / "frontend.py", *sorted((package / "cluster").glob("*.py"))]:
        assert not connects.search(path.read_text(encoding="utf-8")), path

    GenerationStore(tmp_path / "store").publish(small_engine)
    server = TraceServer(small_engine, **worker_tier(small_engine, workers=1))
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "store", tmp_path / "run"
    )
    try:
        fleet_up(server)
        addresses = [
            server.backend.clients["worker-r0"].address,
            _spawn(replica),
        ]
        pids = []
        for address in addresses:
            with ReadClient(address, "child", 5.0, 30.0) as client:
                reply = client.request({"op": "ping"})
            assert reply["ok"] and reply["generation"] == 1
            pids.append(reply["pid"])
        assert pids == [server.backend.managed["worker-r0"].pid, replica.pid]
    finally:
        server.close()
        replica.terminate()


def test_chaos_injectors_never_raise(small_engine, tmp_path):
    """Pausing a replica that is not running is a ``False`` return.

    A paused replica keeps its socket but answers nothing until its timer
    (restarted by a second pause) or ``clear`` resumes it, after which it
    answers again and leaves on SIGTERM alone.
    """
    GenerationStore(tmp_path / "store").publish(small_engine)
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "store", tmp_path / "run"
    )
    name = replica.name
    chaos = ChaosController(SimpleNamespace(managed={name: replica}))
    paused = {"fault": "pause", "replica": name, "seconds": 30.0}
    try:
        assert chaos.pause(name, 30.0) is False  # never spawned
        address = _spawn(replica)
        assert chaos.pause(name, 30.0) is True
        with ReadClient(address, name, 5.0, 0.3) as client:
            with pytest.raises(ReadProcessError):
                client.request({"op": "ping"})  # stopped: no reply
        chaos.clear()
        with ReadClient(address, name, 5.0, 30.0) as client:
            assert client.request({"op": "ping"})["pid"] == replica.pid
        assert chaos.injected == [paused]
        assert chaos.pause(name, 30.0) is True
        replica.kill()
        chaos.clear()  # the paused process is gone: nothing to resume
        assert chaos.pause(name, 30.0) is False  # vanished
        assert chaos.injected == [paused, paused]
        address = _spawn(replica)
        # Re-pausing restarts the timer: the short first pause's expiry
        # does not resume the replica under the second, long one.
        assert chaos.pause(name, 0.2) is True
        assert chaos.pause(name, 30.0) is True
        time.sleep(0.5)
        with ReadClient(address, name, 5.0, 0.3) as client:
            with pytest.raises(ReadProcessError):
                client.request({"op": "ping"})
        chaos.clear()
        replica.terminate(timeout=10.0)
        assert replica.returncode in (0, -signal.SIGTERM)  # no SIGKILL
    finally:
        chaos.clear()
        replica.terminate()


def test_cluster_edge_is_traced_like_every_other_tier(small_dataset, small_measure, fleet_up):
    """A sampled cluster request carries the shared edge's spans -- and the
    shard processes' own.

    The cluster tier is the one ``TraceServer`` with a fleet plugged in, so
    its ``request.topk`` root has the ``batch``/``queries`` attributes and
    the ``coalesce.wait`` / ``coalesce.dispatch`` children the in-process
    and worker tiers have.  Under ``coalesce.dispatch`` hangs one
    ``worker.request`` per shard group, and under each the answering read
    process's ``worker.topk`` with its adoption and kernel stages, labelled
    with the replica's name.  Sampling never changes the body.
    """
    from repro.cluster.frontend import cluster_tier
    from repro.server.app import TraceServer
    from repro.service.sharded import ShardedEngine

    engine = ShardedEngine(
        small_dataset,
        measure=small_measure,
        num_shards=2,
        num_hashes=32,
        seed=5,
    ).build()
    server = TraceServer(
        engine, trace_sample=1.0, **cluster_tier(engine, replication=1)
    )
    try:
        fleet_up(server)
        status, payload = server.handle_topk({"entity": "a", "k": 2})
        assert status == 200, payload
        _, slow = server.handle_debug_slow()
        server.tracer.sample_rate = 0.0
        untraced_status, untraced = server.handle_topk({"entity": "a", "k": 2})
    finally:
        server.close()
    assert untraced_status == 200
    assert protocol.dumps(payload) == protocol.dumps(untraced)
    (root,) = [record["spans"][0] for record in slow["slowest"]]
    assert root["name"] == "request.topk"
    assert root["attributes"]["batch"] is False
    assert root["attributes"]["queries"] == 1
    children = {child["name"]: child for child in root["children"]}
    assert "coalesce.wait" in children
    assert "coalesce.dispatch" in children
    shard_requests = children["coalesce.dispatch"]["children"]
    assert [span["name"] for span in shard_requests] == ["worker.request"] * 2
    assert sorted(span["attributes"]["shard"] for span in shard_requests) == [
        "shard-000",
        "shard-001",
    ]
    for shard_request in shard_requests:
        assert shard_request["process"] == "server"
        assert shard_request["attributes"]["generation"] == 1
        (remote,) = shard_request["children"]
        assert remote["name"] == "worker.topk"
        assert remote["process"] == shard_request["attributes"]["shard"] + "-r0"
        stages = [child["name"] for child in remote["children"]]
        assert stages[0] == "worker.adopt"
        assert any(name.startswith("kernel.") for name in stages[1:])
        assert all(child["process"] == remote["process"] for child in remote["children"])


def _cluster_server(small_dataset, small_measure):
    """A 2-shard ``--cluster 1`` server over ``small_dataset``."""
    from repro.cluster.frontend import cluster_tier
    from repro.service.sharded import ShardedEngine

    engine = ShardedEngine(
        small_dataset, measure=small_measure, num_shards=2, num_hashes=32, seed=5
    ).build()
    return TraceServer(engine, coalesce_window=0.0, **cluster_tier(engine, replication=1))


def test_once_up_an_outage_degrades_and_never_reaches_the_owner(
    small_dataset, small_measure, fleet_up
):
    """After the switch, SIGKILLing every replica gives today's answers:
    the group the supervisor brings back is waited for, the suspended one
    is reported missing -- ``degraded``, never an owner answer."""
    server = _cluster_server(small_dataset, small_measure)
    fleet = server.backend
    try:
        fleet_up(server)
        fleet.supervisor.suspend(["shard-001-r0"])
        for replica in fleet.managed.values():
            replica.kill()
        status, payload = server.handle_topk({"entity": "a", "k": 2})
        assert status == 200, payload
        assert (payload["degraded"], payload["missing_shards"]) == (True, [1])
        health = server.handle_healthz()[1]
        assert (health["reads"], health["status"]) == ("replicas", "degraded")
        assert fleet.stats()["workers"]["owner_queries"] == 0
    finally:
        server.close()


def test_the_coordinator_resolves_sequences_under_the_engine_lock(
    small_dataset, small_measure, fleet_up
):
    """Flushes mutate the routing dataset under the owner's engine lock,
    so every ``cell_sequence`` the coordinator resolves runs holding it:
    a probe thread must find the lock taken each time."""
    server = _cluster_server(small_dataset, small_measure)
    held = []

    class LockCheckingDataset:
        def __init__(self, dataset):
            self._dataset = dataset

        def __getattr__(self, name):
            return getattr(self._dataset, name)

        def cell_sequence(self, entity):
            def probe():
                free = server.engine_lock.acquire(blocking=False)
                if free:
                    server.engine_lock.release()
                held.append(not free)

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            return self._dataset.cell_sequence(entity)

    try:
        coordinator = fleet_up(server).backend.coordinator
        coordinator.dataset = LockCheckingDataset(coordinator.dataset)
        assert server.handle_topk({"entity": "a", "k": 2})[0] == 200
        assert server.handle_topk({"entities": ["a", "b", "c"], "k": 2})[0] == 200
    finally:
        server.close()
    assert held == [True] * 4
