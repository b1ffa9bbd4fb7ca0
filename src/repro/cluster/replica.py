"""Replica clients and R-way replica groups with hedged failover.

One shard of the cluster is served by ``R`` interchangeable shard-server
processes (a *replica group*); this module is the coordinator's view of
them.  Three layers:

- :class:`ClusterConfig` -- every timeout/retry/hedging knob in one
  dataclass, so the coordinator, supervisor, chaos battery, and CLI all
  speak the same vocabulary.
- :class:`ReplicaClient` -- the one read client
  (:class:`~repro.server.workers.ReadClient`; ``docs/SERVING.md``, "Client
  side") pointed at one shard server, plus that replica's health record.
  The client's close-on-every-failure invariant is what makes hedging
  safe: a connection either completes an exchange or dies, it never
  carries a stale reply.
- :class:`ReplicaGroup` -- failover policy over the group's clients:
  rotate across usable replicas, retry with
  :class:`~repro.server.backoff.ExponentialBackoff` under a per-shard
  deadline, and *hedge* slow attempts (after ``hedge_delay`` seconds a
  second replica gets the same idempotent read; first answer wins).
  Per-replica :class:`~repro.obs.health.NodeHealth` records the
  live/suspect/down/catching-up state that ``/metrics`` exposes, and a
  node held in ``catching_up`` by the supervisor is skipped until its
  rejoin is verified.

Hedging never duplicates work observably: ``topk`` and ``sync`` are
read-only, and the loser's late reply is consumed (or its connection
closed) by the losing thread itself, so no frame desynchronisation can
leak into later exchanges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.health import NodeHealth
from repro.server.backoff import ExponentialBackoff
from repro.server.workers import ReadClient, ReadProcessError

__all__ = ["ClusterConfig", "ReplicaClient", "ReplicaGroup", "ShardUnavailable"]


@dataclass
class ClusterConfig:
    """Timeouts, retries, and hedging for coordinator <-> shard traffic."""

    #: Seconds allowed for one TCP connect to a replica.
    connect_timeout: float = 2.0
    #: Seconds allowed for one framed exchange once connected.
    request_timeout: float = 10.0
    #: Total budget for answering one shard's part of a query batch --
    #: retries and hedges all fit inside this deadline.
    shard_deadline: float = 30.0
    #: Seconds to wait on the primary before hedging to a second replica.
    hedge_delay: float = 0.2
    #: Retry backoff (shared :class:`ExponentialBackoff` parameters).
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    #: Attempt rounds per request before the shard counts as unavailable.
    max_attempts: int = 4


class ShardUnavailable(RuntimeError):
    """Every replica of a shard group failed within the deadline."""

    def __init__(self, shard: str, detail: str) -> None:
        super().__init__(f"shard {shard}: {detail}")
        self.shard = shard


class ReplicaClient(ReadClient):
    """The read client of one shard server, with the replica's health."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        config = config or ClusterConfig()
        super().__init__(
            (host, int(port)), name, config.connect_timeout, config.request_timeout
        )
        self.health = NodeHealth(name)


class ReplicaGroup:
    """Failover policy over one shard's replicas."""

    def __init__(
        self,
        shard: str,
        replicas: Sequence[ReplicaClient],
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if not replicas:
            raise ValueError(f"shard {shard}: a replica group needs >= 1 replica")
        self.shard = shard
        self.replicas = list(replicas)
        self.config = config or ClusterConfig()
        self.counters = {"requests": 0, "retries": 0, "hedges": 0, "failovers": 0}
        self._rotation = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _candidates(self) -> List[ReplicaClient]:
        """Replicas in try-order: usable ones in rotation first.

        ``catching_up`` nodes are excluded outright (the rejoin gate);
        ``down`` nodes trail the list as a last resort -- if every usable
        replica just failed, a "down" process may in fact be back.
        """
        with self._lock:
            start = self._rotation
            self._rotation += 1
        ordered = [
            self.replicas[(start + offset) % len(self.replicas)]
            for offset in range(len(self.replicas))
        ]
        usable = [replica for replica in ordered if replica.health.is_usable]
        fallback = [
            replica
            for replica in ordered
            if not replica.health.is_usable and replica.health.state != "catching_up"
        ]
        return usable + fallback

    # ------------------------------------------------------------------
    # One hedged attempt
    # ------------------------------------------------------------------
    def _attempt(
        self,
        primary: ReplicaClient,
        hedge: Optional[ReplicaClient],
        payload: Dict[str, object],
        deadline: float,
    ) -> Optional[Dict[str, object]]:
        """Race ``primary`` (and, after ``hedge_delay``, ``hedge``) for one reply.

        The hedge also launches immediately if the primary *fails* before
        the hedge delay elapses -- a fast failover, counted the same way.
        A losing exchange finishes on its own thread (consuming its reply
        or closing its connection), so no frame desynchronisation outlives
        the attempt.
        """
        condition = threading.Condition()
        state: Dict[str, object] = {"reply": None, "winner": None, "failed": 0, "launched": 1}

        def settled() -> bool:
            return state["reply"] is not None or state["failed"] >= state["launched"]

        def exchange(replica: ReplicaClient) -> None:
            try:
                reply = replica.request(payload, timeout=deadline - time.monotonic())
            except ReadProcessError:
                replica.health.record_failure()
                with condition:
                    state["failed"] += 1
                    condition.notify_all()
                return
            replica.health.record_success()
            with condition:
                if state["reply"] is None:
                    state["reply"] = reply
                    state["winner"] = replica.name
                condition.notify_all()

        threading.Thread(
            target=exchange, args=(primary,), name=f"{self.shard}-primary", daemon=True
        ).start()
        launch_hedge = False
        with condition:
            if hedge is not None:
                condition.wait_for(
                    settled,
                    timeout=min(
                        self.config.hedge_delay, max(0.0, deadline - time.monotonic())
                    ),
                )
                if state["reply"] is None and time.monotonic() < deadline:
                    state["launched"] += 1
                    launch_hedge = True
        if launch_hedge:
            with self._lock:
                self.counters["hedges"] += 1
            threading.Thread(
                target=exchange, args=(hedge,), name=f"{self.shard}-hedge", daemon=True
            ).start()
        with condition:
            condition.wait_for(settled, timeout=max(0.0, deadline - time.monotonic()))
            reply = state["reply"]
            winner = state["winner"]
        if reply is not None and winner != primary.name:
            with self._lock:
                self.counters["failovers"] += 1
        return reply

    # ------------------------------------------------------------------
    # Public request path
    # ------------------------------------------------------------------
    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Answer ``payload`` from any replica, or raise :class:`ShardUnavailable`.

        Attempt rounds walk the candidate rotation with exponential
        backoff between rounds, all under the shard deadline.
        """
        with self._lock:
            self.counters["requests"] += 1
        deadline = time.monotonic() + self.config.shard_deadline
        backoff = ExponentialBackoff(
            base=self.config.backoff_base, cap=self.config.backoff_cap
        )
        for attempt in range(self.config.max_attempts):
            candidates = self._candidates()
            if not candidates:
                break  # every replica is catching up
            primary = candidates[0]
            hedge = candidates[1] if len(candidates) > 1 else None
            reply = self._attempt(primary, hedge, payload, deadline)
            if reply is not None:
                return reply
            if attempt + 1 < self.config.max_attempts:
                with self._lock:
                    self.counters["retries"] += 1
                delay = min(backoff.next_delay(), max(0.0, deadline - time.monotonic()))
                if time.monotonic() + delay >= deadline:
                    break
                time.sleep(delay)
            if time.monotonic() >= deadline:
                break
        states = {replica.name: replica.health.state for replica in self.replicas}
        raise ShardUnavailable(
            self.shard,
            f"no replica answered within {self.config.shard_deadline:.1f}s "
            f"(states: {states})",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_replicas(self) -> int:
        """How many of the group's replicas are currently ``live``."""
        return sum(1 for replica in self.replicas if replica.health.is_live)

    def snapshot(self) -> Dict[str, object]:
        """Counters plus per-replica health for ``/v1/stats`` and ``/metrics``."""
        with self._lock:
            counters = dict(self.counters)
        return {
            "shard": self.shard,
            "counters": counters,
            "replicas": [replica.health.snapshot() for replica in self.replicas],
        }

    def close(self) -> None:
        """Close every replica's persistent connection."""
        for replica in self.replicas:
            replica.close()
