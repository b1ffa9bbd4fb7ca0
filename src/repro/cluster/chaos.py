"""Fault injection against a live :class:`~repro.cluster.frontend.ClusterFleet`.

The chaos battery (and the cluster tests) speak to the cluster through
this controller rather than poking processes directly, so every injected
fault is one of a small, named vocabulary:

- ``kill_one_per_group()`` -- SIGKILL one *unsuspended* replica in every
  shard group.  The supervisor is allowed to respawn it; this is the
  crash/recovery cycle, and answers must stay exact throughout (R >= 2).
- ``blackout_group(index)`` -- suspend and SIGKILL *every* replica of one
  group.  The shard is gone until ``restore_group``; the coordinator must
  answer degraded (marked!), never wrong.
- ``slow_replies`` / ``drop_requests`` / ``refuse_connections`` -- set a
  live replica's in-memory chaos flags over the wire (the shard server's
  ``chaos`` op): delayed replies exercise hedging, dropped exchanges
  exercise retry, refused connects exercise failover.

Every injector tolerates the replica dying mid-injection (the race is the
point of chaos testing): wire errors surface as a ``False`` return, not
an exception.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.replica import ReplicaClient
from repro.server.workers import ReadProcessError

__all__ = ["ChaosController"]


class ChaosController:
    """Scripted faults over a :class:`~repro.cluster.frontend.ClusterFleet`."""

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        #: Every fault injected, in order -- returned in battery reports so
        #: a failure names the exact fault schedule that produced it.
        self.injected: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Wire faults (shard-server chaos flags)
    # ------------------------------------------------------------------
    def _configure(self, name: str, flags: Dict[str, object]) -> bool:
        replica = self.fleet.managed[name]
        if replica.port is None:
            return False
        # A one-use client: chaos frames never ride a serving connection.
        with ReplicaClient(
            name, replica.host, replica.port, self.fleet.cluster_config
        ) as client:
            try:
                reply = client.request({"op": "chaos", **flags})
            except ReadProcessError:
                return False
        self.injected.append({"fault": "chaos_flags", "replica": name, **flags})
        return bool(reply.get("ok"))

    def slow_replies(self, name: str, delay: float) -> bool:
        """Every reply from ``name`` sleeps ``delay`` seconds first."""
        return self._configure(name, {"delay": float(delay)})

    def drop_requests(self, name: str, count: int) -> bool:
        """The next ``count`` exchanges with ``name`` vanish mid-flight."""
        return self._configure(name, {"drop": int(count)})

    def refuse_connections(self, name: str, refuse: bool = True) -> bool:
        """``name`` accepts and instantly closes new connections."""
        return self._configure(name, {"refuse": bool(refuse)})

    def clear(self, name: Optional[str] = None) -> None:
        """Reset wire-level flags on one replica (or all live ones)."""
        names = [name] if name is not None else list(self.fleet.managed)
        for target in names:
            self._configure(target, {"delay": 0.0, "drop": 0, "refuse": False})
