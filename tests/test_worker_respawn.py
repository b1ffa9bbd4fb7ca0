"""Regression tests for the replica supervisor's respawn loop.

A read process that dies *on startup* -- broken interpreter, missing store,
exhausted memory -- must not put the respawn loop into a hot fork loop.
The supervisor backs off exponentially between respawn attempts and counts
a *respawn storm* once the failure streak crosses the backoff's storm
threshold, so a persistent crash loop is visible in ``/v1/stats`` and
``/metrics`` instead of only in the load average.

The first test arranges exactly that on a ``--workers 2`` fleet: one
replica is SIGKILLed *and* its spawn command replaced by one that exits
immediately, so every revival attempt dies on startup.  The fleet must (a)
keep answering queries through the surviving replica, (b) count the
exchange re-sent from the dead replica, and (c) count at least one
respawn storm -- all with the backoff shrunk so the loop crosses the
threshold in well under a second.

The second test covers the child that does *not* die: it stays alive but
never listens.  The supervisor must give up on it after the replica's own
start-up timeout, not after a constant of its own -- and, third test,
while it waits on that child it must keep tending every other replica.
The fourth pins that health reports a kill the supervisor saw, before
any query runs into it.

The last two cover the owner phase: read processes that never listen,
from their first start, leave the owner answering (``reads: owner``)
beside a counted storm; and once the fleet has answered, a fleet killed
whole is waited for, never replaced by the owner again.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.cluster.chaos import ChaosController
from repro.cluster.supervisor import ManagedReplica
from repro.server.app import TraceServer
from repro.server.backoff import ExponentialBackoff
from repro.server.frontend import worker_tier


def _fleet_server(engine, workers=2):
    """A ``--workers`` server whose supervisor backs off in milliseconds."""
    server = TraceServer(engine, coalesce_window=0.0, **worker_tier(engine, workers=workers))
    supervisor = server.backend.supervisor
    for name in supervisor.managed:
        supervisor._backoffs[name] = ExponentialBackoff(base=0.01, cap=0.05)
    return server


def _items(payload):
    return [(row["entity"], row["score"]) for row in payload["results"]]


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_crash_looping_worker_counts_a_storm_and_fleet_keeps_answering(small_engine, fleet_up):
    server = _fleet_server(small_engine)
    fleet = server.backend
    try:
        fleet_up(server)
        victim = fleet.managed["worker-r0"]
        # Every future revival of this replica dies before listening.
        victim.command = [sys.executable, "-c", "import sys; sys.exit(3)"]
        # With the supervisor's tick held off, the kill is not yet seen:
        # the batch's chunk sent to the dead replica must be re-sent to the
        # survivor.
        with fleet.supervisor._tending:
            os.kill(victim.pid, signal.SIGKILL)
            victim._popen.wait()
            payloads = fleet.topk(["a", "b"], 3, 0.0)
        assert [_items(payload) for payload in payloads] == [
            list(small_engine.top_k(entity, k=3).items) for entity in ("a", "b")
        ]

        assert _wait_for(lambda: fleet.stats()["workers"]["respawn_storms"] >= 1)
        stats = fleet.stats()["workers"]
        assert stats["respawn_storms"] >= 1, stats
        assert stats["retries"] >= 1, stats

        # The fleet still serves exact answers while one replica crash-loops.
        status, payload = server.handle_topk({"entity": "b", "k": 3})
        assert status == 200, payload
        assert _items(payload) == list(small_engine.top_k("b", k=3).items)
    finally:
        server.close()


def test_child_that_never_listens_is_given_up_on_after_its_startup_timeout(small_engine, fleet_up):
    server = _fleet_server(small_engine)
    fleet = server.backend
    try:
        fleet_up(server)
        victim = fleet.managed["worker-r0"]
        # Shrunk after a normal start: what a respawn waits is the
        # replica's start-up timeout, whatever it is.
        victim.startup_timeout = 0.3
        # Every future revival of this replica stays alive and never binds.
        victim.command = [sys.executable, "-c", "import time; time.sleep(600)"]
        os.kill(victim.pid, signal.SIGKILL)

        status, payload = server.handle_topk({"entity": "a", "k": 3})
        assert status == 200, payload
        assert _items(payload) == list(small_engine.top_k("a", k=3).items)

        # Three given-up attempts make a storm: ~1 s at 0.3 s each, where a
        # wait of its own 60 s would still be inside the first.
        assert _wait_for(lambda: fleet.stats()["workers"]["respawn_storms"] >= 1)
        stats = fleet.stats()["workers"]
        assert stats["respawn_storms"] >= 1, stats
        assert stats["respawns"] >= 3, stats
    finally:
        server.close()


def test_a_child_that_never_listens_stalls_no_other_respawn(small_engine, fleet_up):
    """Two replicas die; the first one's revival never listens.  The
    second must be back ``live`` well inside the first's 60 s start-up
    timeout: the supervisor starts children, it does not wait on them."""
    server = _fleet_server(small_engine)
    fleet = server.backend
    try:
        fleet_up(server)
        sleeper, other = fleet.managed["worker-r0"], fleet.managed["worker-r1"]
        assert sleeper.startup_timeout == 60.0
        sleeper.command = [sys.executable, "-c", "import time; time.sleep(600)"]
        for replica in (sleeper, other):
            os.kill(replica.pid, signal.SIGKILL)
            replica._popen.wait()
        assert _wait_for(
            lambda: other.respawns == 1
            and other.alive()
            and fleet.clients[other.name].health.is_live
        ), fleet.supervisor.snapshot()
        assert fleet.clients[sleeper.name].health.restarting

        status, payload = server.handle_topk({"entity": "a", "k": 3})
        assert status == 200, payload
        assert _items(payload) == list(small_engine.top_k("a", k=3).items)
    finally:
        server.close()


def test_health_reports_a_kill_before_any_query(small_engine, fleet_up):
    """A dead replica reads ``down`` as soon as the supervisor sees it,
    with no query sent: a suspended kill leaves one live replica, and a
    blackout of the whole group turns ``/v1/healthz`` ``degraded``."""
    server = _fleet_server(small_engine)
    fleet = server.backend
    chaos = ChaosController(fleet)
    try:
        fleet_up(server)
        victim = fleet.managed["worker-r0"]
        fleet.supervisor.suspend([victim.name])
        victim.kill()
        assert _wait_for(
            lambda: fleet.clients[victim.name].health.state == "down"
        ), fleet.supervisor.snapshot()
        status, payload = server.handle_healthz()
        assert (status, payload["status"]) == (200, "ok")
        assert payload["cluster"]["live_replicas"] == {"worker": 1}

        chaos.blackout_group(0)
        assert _wait_for(lambda: server.handle_healthz()[1]["status"] == "degraded")
        assert server.handle_healthz()[1]["cluster"]["live_replicas"] == {"worker": 0}
        assert fleet.stats()["workers"]["requests"] == 0  # no query was needed
    finally:
        server.close()


def test_a_fleet_that_never_listens_answers_from_the_owner(small_engine, monkeypatch):
    """Read processes that never listen, from their very first start: the
    owner keeps answering exactly, the supervisor counts a respawn storm,
    and the probe reads ``reads: owner`` with ``status: ok``."""
    start = ManagedReplica.start

    def never_listening(replica):
        replica.command = [sys.executable, "-c", "import time; time.sleep(600)"]
        replica.startup_timeout = 0.3
        start(replica)

    monkeypatch.setattr(ManagedReplica, "start", never_listening)
    server = _fleet_server(small_engine)
    fleet = server.backend
    try:
        assert _wait_for(
            lambda: fleet.stats()["workers"]["respawn_storms"] >= 1
        ), fleet.supervisor.snapshot()
        status, payload = server.handle_topk({"entity": "a", "k": 3})
        assert status == 200, payload
        assert _items(payload) == list(small_engine.top_k("a", k=3).items)
        status, payload = server.handle_topk({"entities": ["a", "b"], "k": 3})
        assert status == 200, payload
        assert [_items(entry) for entry in payload["results"]] == [
            list(small_engine.top_k(entity, k=3).items) for entity in ("a", "b")
        ]
        status, health = server.handle_healthz()
        assert (status, health["status"], health["reads"]) == (200, "ok", "owner")
        assert health["cluster"]["live_replicas"] == {"worker": 0}
        stats = fleet.stats()["workers"]
        assert (stats["owner_queries"], stats["requests"]) == (3, 0), stats
    finally:
        server.close()


def test_once_up_a_dead_fleet_is_waited_for_never_the_owner(small_engine, fleet_up):
    """After the switch, SIGKILLing every read process does not send reads
    back to the owner: the next query waits for the supervisor to bring a
    replica back, answers exactly, and ``owner_queries`` stays put."""
    server = _fleet_server(small_engine)
    fleet = server.backend
    try:
        fleet_up(server)
        assert server.handle_topk({"entity": "b", "k": 3})[0] == 200
        owner_queries = fleet.stats()["workers"]["owner_queries"]
        for replica in fleet.managed.values():
            replica.kill()
        # The supervisor has seen every replica dead: no group is live.
        assert _wait_for(
            lambda: not any(client.health.is_live for client in fleet.clients.values())
        ), fleet.supervisor.snapshot()
        status, payload = server.handle_topk({"entity": "a", "k": 3})
        assert status == 200, payload
        assert _items(payload) == list(small_engine.top_k("a", k=3).items)
        stats = fleet.stats()["workers"]
        assert stats["owner_queries"] == owner_queries, stats
        assert stats["respawns"] >= 1, stats
        assert server.handle_healthz()[1]["reads"] == "replicas"
    finally:
        server.close()
