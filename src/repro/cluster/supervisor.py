"""Managed replicas: spawn, respawn with backoff, verified rejoin.

:class:`ManagedReplica` is one read process (:mod:`repro.server.workers`)
of either multi-process tier, on an ephemeral TCP port discovered through
an atomically written port file.  :class:`ReplicaSupervisor` owns a
fleet's processes and runs the one respawn loop.  It brings up each
replica's first process the same way as a replacement (steps 2 and 3;
``catching_up`` rather than ``down`` until it listens), so nothing waits
for a child at start-up, and a first start counts no respawn, ``down``
or recovery:

1. a dead, non-suspended process is restarted under
   :class:`~repro.server.backoff.ExponentialBackoff`; a replica dying on
   startup counts a *respawn storm* (``/v1/stats``, ``/metrics``) instead
   of becoming a fork storm.  The loop only starts the child and looks for
   its port file on later ticks, giving up after its ``startup_timeout``,
   so one child that never listens stalls no other replica;
2. a dead process is marked ``down`` on the tick that sees it, and while
   its replacement starts the replica is also ``restarting``
   (:class:`~repro.obs.health.NodeHealth`): a group with nothing else
   left waits for it.  Once it listens it is ``catching_up``, **excluded
   from rotation**;
3. the supervisor sends it ``sync`` with ``min_generation`` = its store's
   newest published generation; only an affirmative answer -- the replica
   provably at or past it -- flips it back to ``live``.  A replica that
   lost generations while dead therefore never serves stale answers.

``suspend``/``resume`` exist for fault injection: a chaos scenario that
wants a replica (or a whole group) to *stay* down suspends it first.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.cluster.replica import ClusterConfig, ReplicaClient
from repro.obs.health import CATCHING_UP, NodeHealth
from repro.server.backoff import ExponentialBackoff
from repro.server.generation import GenerationStore
from repro.server.workers import Address, ReadProcessError

__all__ = ["ManagedReplica", "ReplicaSupervisor"]


class ManagedReplica:
    """One replica -- a TCP read process child -- as its parent holds it.

    The command line, the child's import path, port-file discovery, the
    respawn count and the SIGTERM-then-SIGKILL escalation exist here once,
    for both tiers' replicas; :class:`ReplicaSupervisor` waits for the
    child to listen, on its own ticks.
    """

    def __init__(
        self,
        shard: str,
        name: str,
        store_root: str,
        run_dir: str,
        startup_timeout: float = 60.0,
    ) -> None:
        self.shard = shard
        self.name = name
        self.startup_timeout = startup_timeout
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        self.port_file = run_dir / f"{name}.port"
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        # Spawned via -c rather than -m: `python -m repro.server.workers`
        # would import the repro.server package (which itself imports the
        # workers module) before runpy re-executes it as __main__, tripping
        # a double-import RuntimeWarning.  The command line still contains
        # "repro.server.workers", so `pgrep -f` finds read processes.
        self.command = [
            sys.executable,
            "-c",
            "import sys; from repro.server.workers import main; sys.exit(main(sys.argv[1:]))",
            "--store", str(store_root),
            "--shard", name,
            "--port-file", str(self.port_file),
            "--startup-timeout", str(startup_timeout),
        ]
        #: Starts after the first -- what ``/v1/stats`` and ``/metrics`` report.
        self.respawns = 0
        #: While ``True`` the supervisor leaves a dead process dead.
        self.suspended = False
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
        """Start the child, terminating a previous one first; the previous
        one's port file must not speak for it."""
        self.terminate(timeout=5.0)
        self.port_file.unlink(missing_ok=True)
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
        """The address once the child has (atomically) written its bound
        port, else ``None`` (one probe)."""
        try:
            self.port = int(self.port_file.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        return (self.host, self.port)

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


class ReplicaSupervisor:
    """The respawn loop over every managed replica of a fleet."""

    def __init__(
        self,
        managed: Dict[str, ManagedReplica],
        clients: Dict[str, ReplicaClient],
        stores: Dict[str, GenerationStore],
        config: Optional[ClusterConfig] = None,
        poll_interval: float = 0.1,
        respawn_backoff_base: float = 0.1,
        respawn_backoff_cap: float = 5.0,
    ) -> None:
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
        #: Replica name -> ``time.monotonic()`` of a start not yet listening.
        self._starting: Dict[str, float] = {}
        self._lock = threading.Lock()
        #: Held for one replica's tick, and by :meth:`suspend`.
        self._tending = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every replica's first process and the background loop,
        which brings each one up exactly as after a respawn: nothing here
        waits for a child."""
        for name, replica in self.managed.items():
            # Out of rotation until its first verified sync, which admits
            # it without counting a recovery.
            self.clients[name].health = NodeHealth(name, state=CATCHING_UP)
            self._launch(name, replica)
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
                with self._tending:
                    try:
                        self._tend(name, replica)
                    except Exception:  # noqa: BLE001 - the loop must survive anything
                        pass

    def _tend(self, name: str, replica: ManagedReplica) -> None:
        """One tick for one replica; never waits on the child.

        A dead, unsuspended replica is restarted (backoff permitting) and
        flagged ``restarting``; later ticks look for the replacement's port
        file, give up on it after its ``startup_timeout``, point the client
        at it once it listens (``catching_up``) and verify its rejoin.  One
        child that never listens therefore delays no other replica.  A
        dead process -- suspended or not -- is marked ``down`` as soon as a
        tick sees it, so health reports the kill before any query does.
        """
        client = self.clients[name]
        started = self._starting.get(name)
        if started is not None:
            address = replica._listening()
            if address is None and replica.alive():
                if time.monotonic() - started < replica.startup_timeout:
                    return
                replica.kill()  # alive but never listening: given up on
            del self._starting[name]
            client.health.restarting = False
            if address is None:
                self._failed_start(name)
            else:
                client.set_address(address)
                client.health.mark_catching_up()
        if not replica.alive():
            client.health.mark_down()
            if replica.suspended or time.monotonic() < self._next_attempt[name]:
                return
            try:
                self._launch(name, replica)
            except OSError:
                self._failed_start(name)
            return
        if client.health.state == CATCHING_UP:
            self._verify_rejoin(name, replica, client)

    def _launch(self, name: str, replica: ManagedReplica) -> None:
        """Start ``replica``'s process; later ticks look for its port file."""
        replica.start()
        self._starting[name] = time.monotonic()
        self.clients[name].health.restarting = True

    def _failed_start(self, name: str) -> None:
        """A start that died or never listened: down, back off, count storms."""
        self.clients[name].health.mark_down()
        backoff = self._backoffs[name]
        delay = backoff.next_delay()
        if backoff.failures == ExponentialBackoff.STORM_THRESHOLD:
            with self._lock:
                self.respawn_storms += 1
        self._next_attempt[name] = time.monotonic() + delay

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
        with self._tending:  # no tick in progress restarts one after this
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
