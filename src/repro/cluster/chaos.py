"""Fault injection against a live :class:`~repro.cluster.frontend.ClusterFleet`.

The chaos battery (and the cluster tests) speak to the cluster through
this controller rather than poking processes directly, so every injected
fault is one of a small, named vocabulary.  Every fault is a process
fault delivered with an OS signal: a read process has no fault switch of
its own, so nothing here can leave one behind.

- ``kill_one_per_group()`` -- SIGKILL one *unsuspended* replica in every
  shard group.  The supervisor is allowed to respawn it; this is the
  crash/recovery cycle, and answers must stay exact throughout (R >= 2).
- ``blackout_group(index)`` -- suspend and SIGKILL *every* replica of one
  group.  The shard is gone until ``restore_group``; the coordinator must
  answer degraded (marked!), never wrong.
- ``pause(name, seconds)`` -- SIGSTOP one replica and SIGCONT it
  ``seconds`` later.  A stopped process keeps its socket, so connects
  succeed and requests wait unanswered: a hung replica, which the replica
  group's hedge to a sibling must answer around.  ``clear()`` resumes
  every replica still paused (a stopped process cannot act on the
  SIGTERM of a clean shutdown).

Every injector tolerates the replica dying mid-injection (the race is the
point of chaos testing): a replica that is not running is a ``False``
return, not an exception.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["ChaosController"]


class ChaosController:
    """Scripted faults over a :class:`~repro.cluster.frontend.ClusterFleet`."""

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        #: Every fault injected, in order -- returned in battery reports so
        #: a failure names the exact fault schedule that produced it.
        self.injected: List[Dict[str, object]] = []
        #: Replica name -> the paused process id and the timer resuming it.
        self._paused: Dict[str, Tuple[int, threading.Timer]] = {}
        self._lock = threading.Lock()

    def kill_one_per_group(self, replica_index: int = 0) -> List[str]:
        """SIGKILL replica ``replica_index`` of every group; supervisor revives."""
        killed = []
        for group in self.fleet.groups:
            name = f"{group.shard}-r{replica_index}"
            replica = self.fleet.managed[name]
            if replica.suspended:
                continue
            replica.kill()
            killed.append(name)
        self.injected.append({"fault": "kill_one_per_group", "replicas": killed})
        return killed

    def blackout_group(self, shard_index: int) -> List[str]:
        """Suspend + SIGKILL every replica of one group (stays down)."""
        group = self.fleet.groups[shard_index]
        names = [replica.name for replica in group.replicas]
        self.fleet.supervisor.suspend(names)
        for name in names:
            self.fleet.managed[name].kill()
        self.injected.append({"fault": "blackout_group", "shard": group.shard})
        return names

    def restore_group(self, shard_index: int) -> None:
        """Lift a blackout; the supervisor respawns and verifies rejoin."""
        group = self.fleet.groups[shard_index]
        names = [replica.name for replica in group.replicas]
        self.fleet.supervisor.resume(names)
        self.injected.append({"fault": "restore_group", "shard": group.shard})

    def pause(self, name: str, seconds: float) -> bool:
        """SIGSTOP replica ``name`` now and SIGCONT it ``seconds`` later.

        ``False`` when the replica is not running (never spawned, or
        gone); pausing a paused replica restarts its timer.
        """
        replica = self.fleet.managed[name]
        # Signals are sent under the lock, so an expiring timer can never
        # SIGCONT between this SIGSTOP and the new timer's registration.
        with self._lock:
            pid = replica.pid
            if not replica.alive() or not _send(pid, signal.SIGSTOP):
                return False
            previous = self._paused.get(name)
            if previous is not None:
                previous[1].cancel()
            timer = threading.Timer(seconds, lambda: self._resume(name, timer))
            timer.daemon = True
            self._paused[name] = (pid, timer)
            timer.start()
        self.injected.append({"fault": "pause", "replica": name, "seconds": float(seconds)})
        return True

    def _resume(self, name: str, timer: Optional[threading.Timer] = None) -> None:
        """SIGCONT replica ``name`` if still paused; a ``timer`` resumes
        only its own pause, not one that replaced it."""
        with self._lock:
            pid, current = self._paused.get(name, (None, None))
            if current is None or (timer is not None and current is not timer):
                return
            del self._paused[name]
            current.cancel()
            replica = self.fleet.managed[name]
            # The same, unreaped process: a respawned replica was never paused.
            if replica.pid == pid and replica.alive():
                _send(pid, signal.SIGCONT)

    def clear(self) -> None:
        """Resume every replica still paused."""
        with self._lock:
            names = list(self._paused)
        for name in names:
            self._resume(name)


def _send(pid: int, signum: int) -> bool:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        return False
    return True
