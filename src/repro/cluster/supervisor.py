"""Managed shard replicas: spawn, respawn with backoff, verified rejoin.

The coordinator side of process lifecycle.  :class:`ManagedReplica` holds
one shard replica -- a read process (:mod:`repro.server.workers`) on an
ephemeral TCP port discovered through an atomically-written port file;
:class:`ReplicaSupervisor` owns all of a cluster's processes and runs the
respawn loop:

1. a dead, non-suspended process is respawned under
   :class:`~repro.server.backoff.ExponentialBackoff` (a replica dying on
   startup must not become a fork storm -- storms are counted and
   exported, exactly like the worker pool's);
2. a respawned replica enters ``catching_up``
   (:class:`~repro.obs.health.NodeHealth`) and is **excluded from the
   serving rotation** by its replica group;
3. the supervisor sends it ``sync`` with ``min_generation`` = the shard
   store's newest published generation; the replica adopts along the
   delta chain (or reloads a full snapshot) and answers with where it
   stands.  Only an affirmative answer -- the replica provably at or past
   the generation the owner has published -- flips it back to ``live``.

Step 3 is the *catch-up verification* of the rejoin contract: a replica
that lost generations while dead can never serve stale answers, because
it re-enters rotation only after demonstrating it has replayed the suffix
it missed.  The chaos battery kills replicas specifically to exercise
this loop.

``suspend``/``resume`` exist for fault injection: a chaos scenario that
wants a replica (or a whole group) to *stay* down suspends it first, so
the supervisor does not helpfully revive it mid-scenario.
"""

from __future__ import annotations

import signal
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.cluster.replica import ClusterConfig, ReplicaClient, ReplicaGroup
from repro.server.backoff import ExponentialBackoff
from repro.server.generation import GenerationStore
from repro.server.workers import Address, ReadProcess, ReadProcessError

__all__ = ["ManagedReplica", "ReplicaSupervisor"]


class ManagedReplica(ReadProcess):
    """One shard replica -- a TCP read process -- and its port-file discovery."""

    def __init__(
        self,
        shard: str,
        name: str,
        store_root: str,
        run_dir: str,
        startup_timeout: float = 60.0,
    ) -> None:
        self.shard = shard
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.startup_timeout = startup_timeout
        self.port_file = self.run_dir / f"{name}.port"
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        super().__init__(
            name,
            [
                "--store",
                str(store_root),
                "--shard",
                name,
                "--port-file",
                str(self.port_file),
                "--startup-timeout",
                str(startup_timeout),
            ],
        )
        #: While ``True`` the supervisor leaves a dead process dead.
        self.suspended = False

    def start(self) -> None:
        """Start the process; the previous one's port file must not speak for it."""
        self.port_file.unlink(missing_ok=True)
        super().start()

    def _listening(self) -> Optional[Address]:
        """Listening once the child has (atomically) written its bound port."""
        try:
            self.port = int(self.port_file.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        return (self.host, self.port)

    def spawn(self) -> int:
        """Start the process and return its bound port (may raise on startup death)."""
        self.start()
        return self.wait_ready(self.startup_timeout)[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ManagedReplica({self.name!r}, port={self.port}, alive={self.alive()})"


class ReplicaSupervisor:
    """The respawn loop over every managed replica of a cluster."""

    def __init__(
        self,
        groups: Dict[str, ReplicaGroup],
        managed: Dict[str, ManagedReplica],
        clients: Dict[str, ReplicaClient],
        stores: Dict[str, GenerationStore],
        config: Optional[ClusterConfig] = None,
        poll_interval: float = 0.1,
        respawn_backoff_base: float = 0.1,
        respawn_backoff_cap: float = 5.0,
    ) -> None:
        self.groups = groups
        self.managed = managed          # replica name -> process
        self.clients = clients          # replica name -> client
        self.stores = stores            # shard name -> owner-side store
        self.config = config or ClusterConfig()
        self.poll_interval = poll_interval
        self.respawn_storms = 0
        self._backoffs = {
            name: ExponentialBackoff(base=respawn_backoff_base, cap=respawn_backoff_cap)
            for name in managed
        }
        self._next_attempt = {name: 0.0 for name in managed}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background respawn/rejoin loop."""
        self._thread = threading.Thread(
            target=self._run, name="replica-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the loop (the managed processes are left as they are)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            for name, replica in self.managed.items():
                try:
                    self._tend(name, replica)
                except Exception:  # noqa: BLE001 - the loop must survive anything
                    pass

    def _tend(self, name: str, replica: ManagedReplica) -> None:
        client = self.clients[name]
        if replica.suspended:
            return
        if not replica.alive():
            client.health.mark_down()
            now = time.monotonic()
            if now < self._next_attempt[name]:
                return
            backoff = self._backoffs[name]
            try:
                port = replica.spawn()
            except OSError:  # a failed spawn, or ReadProcessError (one too)
                delay = backoff.next_delay()
                if backoff.failures == ExponentialBackoff.STORM_THRESHOLD:
                    with self._lock:
                        self.respawn_storms += 1
                self._next_attempt[name] = time.monotonic() + delay
                return
            client.set_address((replica.host, port))
            client.health.mark_catching_up()
        if client.health.state == "catching_up":
            self._verify_rejoin(name, replica, client)

    def _verify_rejoin(
        self, name: str, replica: ManagedReplica, client: ReplicaClient
    ) -> None:
        """Flip ``catching_up`` to ``live`` only on a proven generation."""
        store = self.stores[replica.shard]
        # A one-use client: the serving one stays untouched until the
        # replica is verified.
        with ReplicaClient(name, replica.host, replica.port, self.config) as probe:
            try:
                reply = probe.request({"op": "sync", "min_generation": store.generation})
            except ReadProcessError:
                return  # not ready yet; the next tick retries
        if reply.get("ok"):
            client.health.mark_live()
            self._backoffs[name].reset()
            self._next_attempt[name] = 0.0

    # ------------------------------------------------------------------
    # Chaos / introspection hooks
    # ------------------------------------------------------------------
    def suspend(self, names: Sequence[str]) -> None:
        """Leave these replicas dead if they die (chaos: a lasting outage)."""
        for name in names:
            self.managed[name].suspended = True

    def resume(self, names: Sequence[str]) -> None:
        """Lift a suspension; the loop may respawn the replicas again."""
        for name in names:
            self.managed[name].suspended = False

    def wait_settled(self, timeout: float = 60.0) -> bool:
        """Block until every non-suspended replica is alive and ``live``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pending = [
                name
                for name, replica in self.managed.items()
                if not replica.suspended
                and (not replica.alive() or not self.clients[name].health.is_live)
            ]
            if not pending:
                return True
            time.sleep(0.05)
        return False

    def snapshot(self) -> Dict[str, object]:
        """Respawn counters and suspensions for ``/v1/stats`` and ``/metrics``."""
        with self._lock:
            storms = self.respawn_storms
        return {
            "respawn_storms": storms,
            "respawns": {
                name: max(0, replica.respawns) for name, replica in self.managed.items()
            },
            "suspended": sorted(
                name for name, replica in self.managed.items() if replica.suspended
            ),
        }

    def shutdown_processes(self, timeout: float = 10.0) -> List[str]:
        """SIGTERM every process; returns the names that needed SIGKILL."""
        self.stop()
        stubborn: List[str] = []
        for name, replica in self.managed.items():
            was_alive = replica.alive()
            replica.terminate(timeout=timeout)
            if was_alive and replica.returncode not in (0, -signal.SIGTERM):
                stubborn.append(name)
        return stubborn
