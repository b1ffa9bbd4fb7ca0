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
from repro.server.frontend import WorkerPool
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
        assert status["chaos"] == {"delay": 0.0, "drop": 0, "refuse": False}

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

    def test_chaos_flags_round_trip(self, shard_server):
        reply = shard_server.handle(
            {"op": "chaos", "delay": 0.25, "drop": 2, "refuse": True}
        )
        assert reply["chaos"] == {"delay": 0.25, "drop": 2, "refuse": True}
        assert shard_server.chaos.should_refuse()
        assert shard_server.chaos.take_drop() and shard_server.chaos.take_drop()
        assert not shard_server.chaos.take_drop()  # tokens consumed
        shard_server.handle({"op": "chaos", "delay": 0.0, "drop": 0, "refuse": False})
        assert shard_server.chaos.snapshot() == {
            "delay": 0.0,
            "drop": 0,
            "refuse": False,
        }


def test_live_shard_server_answers_malformed_topk_frames_with_400(
    small_engine, small_dataset, malformed_query_sequences, tmp_path
):
    """Every op is fed straight from the wire: every malformed frame
    (``topk``, its ``traces`` key, ``sync``, ``chaos``) gets a bounded
    ``status: 400`` reply naming the defect, and the same connection keeps
    serving the next well-formed frame."""
    GenerationStore(tmp_path / "shard-000").publish(small_engine)
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "shard-000", tmp_path / "run"
    )
    port = replica.spawn()
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
                ({"op": "chaos", "delay": "slow"}, "slow"),
                ({"op": "chaos", "delay": 30.0, "drop": [1]}, "list"),
            ]
            for frame, message in malformed:
                reply = exchange(frame)
                assert reply["status"] == 400, reply
                assert message in reply["error"]
                assert len(reply["error"]) <= MAX_ERROR_CHARS
                assert exchange(good)["results"] == expected
            # A chaos frame that failed to decode applied none of its flags.
            assert exchange({"op": "status"})["chaos"] == {
                "delay": 0.0,
                "drop": 0,
                "refuse": False,
            }
    finally:
        replica.terminate()
    assert not replica.alive()


def test_both_tiers_spawn_from_a_parent_without_pythonpath(small_engine, tmp_path):
    """The child gets the parent's import root from the spawn itself, not
    from an inherited ``PYTHONPATH``: a parent that only has ``src`` on
    ``sys.path`` brings up a worker-tier and a cluster-tier read process."""
    GenerationStore(tmp_path / "store").publish(small_engine)
    script = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.cluster.supervisor import ManagedReplica
from repro.server.frontend import WorkerPool
from repro.server.workers import ReadClient

store, run_dir = sys.argv[2], sys.argv[3]
pool = WorkerPool(store, 1)
replica = ManagedReplica("shard-000", "shard-000-r0", store, run_dir)
try:
    pool.start()
    worker = pool._handles[0].client.request({"op": "ping"})
    with ReadClient(("127.0.0.1", replica.spawn()), "shard", 5.0, 30.0) as client:
        shard = client.request({"op": "ping"})
finally:
    pool.close()
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


def test_one_read_process(small_engine, small_dataset, tmp_path):
    """Both tiers run ``repro.server.workers`` and nothing else."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.cluster.shard_server")

    GenerationStore(tmp_path / "store").publish(small_engine)
    pool = WorkerPool(tmp_path / "store", 1)
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "store", tmp_path / "run"
    )
    try:
        pool.start()
        port = replica.spawn()
        for pid in (pool.worker_pids[0], replica.pid):
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
            for ask in (pool._handles[0].client.request, shard_client.request):
                first, second = ask(by_entity), ask(by_sequence)
                assert "error" not in first and "error" not in second
                assert first["results"] == second["results"]
    finally:
        pool.close()
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

    ``address`` is a TCP ``(host, port)`` pair (port ``0`` = ephemeral) or
    a Unix socket path; ``serve`` replaces the framed reply loop with a
    function of the accepted connection (a misbehaving peer).
    """

    def __init__(self, reply_fn, address=("127.0.0.1", 0), serve=None):
        self._reply_fn = reply_fn
        if serve is not None:
            self._serve_frames = serve
        if isinstance(address, str):
            if os.path.exists(address):
                os.unlink(address)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self.port = None if isinstance(address, str) else self.address[1]
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

    def test_group_requires_at_least_one_replica(self):
        with pytest.raises(ValueError, match="needs >= 1 replica"):
            ReplicaGroup("shard-000", [])


# ----------------------------------------------------------------------
# The one read client: the client-side frame boundary, both address kinds
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


@pytest.mark.parametrize("kind", ["unix", "tcp"])
@pytest.mark.parametrize("failure", list(_BROKEN_PEERS))
def test_read_client_fails_closed_at_a_frame_boundary(kind, failure, tmp_path):
    """Every way an exchange can fail is one ``ReadProcessError`` with the
    socket closed, and the next exchange -- a healthy listener now on the
    same address -- gets *its* reply, never a stale one."""
    serve = _BROKEN_PEERS[failure]
    if serve is not None:
        broken = _FakeShardServer(
            None,
            address=str(tmp_path / "peer.sock") if kind == "unix" else ("127.0.0.1", 0),
            serve=serve,
        )
        address = broken.address
    else:
        broken = None
        address = str(tmp_path / "peer.sock") if kind == "unix" else ("127.0.0.1", _dead_port())
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


def test_one_read_client(small_engine, tmp_path):
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
    pool = WorkerPool(tmp_path / "store", 1)
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "store", tmp_path / "run"
    )
    try:
        pool.start()
        addresses = [pool._handles[0].client.address, ("127.0.0.1", replica.spawn())]
        assert isinstance(addresses[0], str)  # a Unix socket path
        pids = []
        for address in addresses:
            with ReadClient(address, "child", 5.0, 30.0) as client:
                reply = client.request({"op": "ping"})
            assert reply["ok"] and reply["generation"] == 1
            pids.append(reply["pid"])
        assert pids == [pool.worker_pids[0], replica.pid]
    finally:
        pool.close()
        replica.terminate()


def test_chaos_injectors_never_raise(small_engine, tmp_path):
    """A chaos frame the replica drops or refuses is a ``False`` return.

    The drop token and the refuse flag apply to chaos frames too, so
    ``clear`` after either cannot reach the process: it must come back
    without raising, and ``injected`` lists acknowledged frames only.
    """
    GenerationStore(tmp_path / "store").publish(small_engine)
    replica = ManagedReplica(
        "shard-000", "shard-000-r0", tmp_path / "store", tmp_path / "run"
    )
    name = replica.name
    chaos = ChaosController(
        SimpleNamespace(managed={name: replica}, cluster_config=_fast_config())
    )
    cleared = {"delay": 0.0, "drop": 0, "refuse": False}
    try:
        assert chaos.slow_replies(name, 0.1) is False  # never spawned: no port
        replica.spawn()
        assert chaos.drop_requests(name, 1) is True
        chaos.clear(name)  # spends the drop token on the chaos frame itself
        assert chaos.clear(name) is None  # this one is answered
        assert chaos.injected == [
            {"fault": "chaos_flags", "replica": name, "drop": 1},
            {"fault": "chaos_flags", "replica": name, **cleared},
        ]
        assert chaos.refuse_connections(name) is True
        chaos.clear(name)  # refused: only a restart clears the flag
        assert chaos.refuse_connections(name, False) is False
        assert len(chaos.injected) == 3
        replica.kill()
        assert chaos.drop_requests(name, 1) is False  # vanished
        assert len(chaos.injected) == 3
    finally:
        replica.terminate()


def test_cluster_edge_is_traced_like_every_other_tier(small_dataset, small_measure):
    """A sampled cluster request carries the shared edge's spans -- and the
    shard processes' own.

    The cluster tier is the one ``TraceServer`` with a fleet plugged in, so
    its ``request.topk`` root has the ``batch``/``queries`` attributes and
    the ``coalesce.wait`` / ``coalesce.dispatch`` children the in-process
    and worker tiers have.  Under ``coalesce.dispatch`` hangs one
    ``shard.request`` per shard group, and under each the answering read
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
    assert [span["name"] for span in shard_requests] == ["shard.request"] * 2
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
