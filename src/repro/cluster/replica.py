"""Replica clients and replica groups: the one dispatch over read processes.

A *replica group* is ``R`` interchangeable read processes serving one
store: one group of ``N`` whole-engine replicas for ``repro serve
--workers N``, one group per shard for ``--cluster``.

- :class:`ClusterConfig` -- every timeout/retry/hedging knob in one
  dataclass, shared by coordinator, supervisor, chaos battery and CLI.
- :class:`ReplicaClient` -- the one read client
  (:class:`~repro.server.workers.ReadClient`; ``docs/SERVING.md``, "Client
  side") pointed at one replica, plus its
  :class:`~repro.obs.health.NodeHealth`.  The client's
  close-on-every-failure invariant is what makes hedging safe: a
  connection either completes an exchange or dies, it never carries a
  stale reply.
- :class:`ReplicaGroup` -- scatters a batch in contiguous chunks, one per
  usable replica; each chunk goes to the least loaded replica (exchanges
  in flight; ties in rotation order), retries with
  :class:`~repro.server.backoff.ExponentialBackoff` under a deadline,
  *hedges* when slow (a replica free of the request gets the same
  idempotent read; first answer wins -- a sibling chunk's replica is free
  only once that chunk is answered and this one has run twice as long),
  skips ``catching_up`` replicas until their rejoin is verified, and
  waits for a replica the supervisor is bringing back rather than fail.

Hedging never duplicates work observably: ``topk`` and ``sync`` are
read-only, and the loser's late reply is consumed (or its connection
closed) by the losing thread itself.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.query import fan_out_queries
from repro.obs.health import CATCHING_UP, NodeHealth
from repro.server.backoff import ExponentialBackoff
from repro.server.workers import ReadClient, ReadProcessError

__all__ = ["ClusterConfig", "ReplicaClient", "ReplicaGroup", "ShardUnavailable"]


@dataclass
class ClusterConfig:
    """Timeouts, retries, and hedging for parent <-> replica traffic."""

    #: Seconds allowed for one TCP connect to a replica.
    connect_timeout: float = 2.0
    #: Seconds allowed for one exchange that has no deadline of its own
    #: (the supervisor's ``sync`` probe); a group's exchanges get what is
    #: left of ``shard_deadline`` instead.
    request_timeout: float = 10.0
    #: Total budget for answering one chunk of a group's request -- the
    #: exchange, retries and hedges all fit inside this deadline.  A
    #: 4096-query batch (``MAX_ITEMS_PER_REQUEST``) at syn-3k takes ~20 s
    #: per chunk at ``--workers 2`` and ~30 s per shard at ``--cluster``
    #: 2x1 on a 2-core host, so the budget leaves room for one retry of
    #: a chunk whose replica died part-way.
    shard_deadline: float = 120.0
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
    """Dispatch over one group's replicas: scatter, failover, hedging."""

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
        #: Exchanges in flight per replica, over every request.
        self._load: Counter = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _rotated(self) -> List[ReplicaClient]:
        """Every replica, starting one further along on each call."""
        with self._lock:
            start = self._rotation
            self._rotation += 1
        return [
            self.replicas[(start + offset) % len(self.replicas)]
            for offset in range(len(self.replicas))
        ]

    def _candidates(
        self,
        scatter: "_Scatter",
        assigned: Optional[ReplicaClient] = None,
        failed: Sequence[ReplicaClient] = (),
    ) -> List[ReplicaClient]:
        """Replicas in try-order: usable ones in rotation first.

        Among the usable ones a chunk's ``assigned`` replica leads, then
        replicas free of the request (:meth:`_Scatter.free`), then the
        rest, each the least loaded first; those that already ``failed``
        it come last.
        ``catching_up`` nodes are excluded outright (the rejoin gate);
        ``down`` nodes trail the list as a last resort -- if every usable
        replica just failed, a "down" process may in fact be back.
        """
        ordered = self._rotated()
        with self._lock:
            busy = [replica for replica in ordered if not scatter.free(replica)]
            load = dict(self._load)
        usable = [replica for replica in ordered if replica.health.is_usable]
        usable.sort(
            key=lambda replica: (
                replica in failed,
                replica is not assigned,
                replica in busy,
                load.get(replica, 0),
            )
        )
        fallback = [
            replica
            for replica in ordered
            if not replica.health.is_usable and replica.health.state != CATCHING_UP
        ]
        return usable + fallback

    def _recoveries(self) -> int:
        """Returns to rotation so far, over the group's replicas."""
        return sum(replica.health.recoveries_total for replica in self.replicas)

    def _recovering(self) -> bool:
        """Whether the supervisor is bringing a replica back: a replacement
        is starting, or it listens and is ``catching_up``."""
        return any(
            replica.health.restarting or replica.health.state == CATCHING_UP
            for replica in self.replicas
        )

    # ------------------------------------------------------------------
    # One hedged attempt
    # ------------------------------------------------------------------
    def _attempt(
        self,
        candidates: Sequence[ReplicaClient],
        scatter: "_Scatter",
        payload: Dict[str, object],
        deadline: float,
    ) -> Tuple[Optional[Dict[str, object]], List[ReplicaClient]]:
        """Race ``candidates[0]`` and, when it is slow, one more candidate.

        After ``hedge_delay`` without a reply -- or at once if the primary
        fails -- the first later candidate free of the request gets the
        same read; while none is free the attempt looks again every
        ``hedge_delay``.  Returns the first reply (``None`` if every
        launched exchange failed) and the replicas launched.  A losing
        exchange finishes on its own thread (consuming its reply or
        closing its connection), so no frame desynchronisation outlives
        the attempt.
        """
        condition = threading.Condition()
        state: Dict[str, object] = {"reply": None, "winner": None, "failed": 0}
        launched: List[ReplicaClient] = []

        def settled() -> bool:
            return state["reply"] is not None or state["failed"] >= len(launched)

        def exchange(replica: ReplicaClient) -> None:
            try:
                reply = replica.request(payload, timeout=deadline - time.monotonic())
            except ReadProcessError:
                reply = None
                replica.health.record_failure()
            else:
                replica.health.record_success()
            with self._lock:
                scatter.inflight[replica] -= 1
                self._load[replica] -= 1
            with condition:
                if reply is None:
                    state["failed"] += 1
                elif state["reply"] is None:
                    state["reply"], state["winner"] = reply, replica
                condition.notify_all()

        def launch(replica: ReplicaClient, role: str) -> None:
            with self._lock:
                scatter.inflight[replica] += 1
                self._load[replica] += 1
            launched.append(replica)
            threading.Thread(
                target=exchange, args=(replica,), name=f"{self.shard}-{role}", daemon=True
            ).start()

        with condition:
            launch(candidates[0], "primary")
            while len(launched) == 1 and time.monotonic() < deadline:
                left = deadline - time.monotonic()
                condition.wait_for(settled, timeout=max(0.0, min(self.config.hedge_delay, left)))
                if state["reply"] is not None:
                    break
                with self._lock:
                    hedge = next(
                        (replica for replica in candidates[1:] if scatter.free(replica)),
                        None,
                    )
                if hedge is not None:
                    launch(hedge, "hedge")
                elif settled():
                    break  # the primary failed and no replica is free
            condition.wait_for(settled, timeout=max(0.0, deadline - time.monotonic()))
            reply, winner = state["reply"], state["winner"]
        with self._lock:
            self.counters["hedges"] += len(launched) - 1
            if reply is not None and winner is not candidates[0]:
                self.counters["failovers"] += 1
        return reply, launched

    # ------------------------------------------------------------------
    # Public request path
    # ------------------------------------------------------------------
    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Answer ``payload`` from the group, or raise :class:`ShardUnavailable`.

        A ``topk`` frame of several queries is scattered: its ``entities``
        (or ``queries``) and ``traces`` split into one contiguous chunk per
        usable replica, each chunk answered by :meth:`_answer`
        concurrently, and the replies gathered in request order.  One chunk
        that stays unavailable fails the whole request.
        """
        scatter = _Scatter()
        key = "queries" if "queries" in payload else "entities"
        items = payload.get(key)
        if not isinstance(items, list) or len(items) < 2:
            return self._answer(payload, scatter)
        usable = [replica for replica in self._rotated() if replica.health.is_usable]
        with self._lock:
            usable.sort(key=lambda replica: self._load[replica])
        holders = usable[: len(items)]
        count = len(holders)
        if count < 2:
            return self._answer(payload, scatter)
        traces = payload.get("traces")
        bounds = [(len(items) * part) // count for part in range(count + 1)]
        frames = []
        for low, high in zip(bounds, bounds[1:]):
            frame = {**payload, key: items[low:high]}
            if traces is not None:
                frame["traces"] = traces[low:high]
            frames.append(frame)
        started = time.monotonic()
        scatter.free_at.update((holder, math.inf) for holder in holders)

        def answer(part: int) -> Dict[str, object]:
            try:
                return self._answer(frames[part], scatter, holders[part])
            finally:
                # Its own chunk answered, the holder may take a sibling's
                # hedge -- once that sibling has run twice as long.
                done = time.monotonic()
                with self._lock:
                    scatter.free_at[holders[part]] = (
                        done + (done - started) + self.config.hedge_delay
                    )

        return _gather(fan_out_queries(answer, count, workers=count))

    def _answer(
        self,
        payload: Dict[str, object],
        scatter: "_Scatter",
        assigned: Optional[ReplicaClient] = None,
    ) -> Dict[str, object]:
        """One chunk's reply: attempt rounds under the shard deadline.

        A round is one :meth:`_attempt`.  Failed rounds back off
        exponentially, up to ``max_attempts``.  With no round left while
        the supervisor brings a replica back (restarting, or
        ``catching_up``), the chunk waits for it within the deadline; each
        return to rotation grants one more round.  A suspended replica is
        never brought back, so a blacked-out group fails promptly.
        """
        with self._lock:
            self.counters["requests"] += 1
        deadline = time.monotonic() + self.config.shard_deadline
        backoff = ExponentialBackoff(
            base=self.config.backoff_base, cap=self.config.backoff_cap
        )
        failed: List[ReplicaClient] = []
        rounds = 0
        recoveries = self._recoveries()
        while True:
            candidates = self._candidates(scatter, assigned, failed)
            if candidates and rounds < self.config.max_attempts:
                if rounds:
                    with self._lock:
                        self.counters["retries"] += 1
                reply, launched = self._attempt(candidates, scatter, payload, deadline)
                if reply is not None:
                    return reply
                rounds += 1
                failed.extend(launched)
                delay = backoff.next_delay()
            elif self._recovering():
                delay = self.config.backoff_base
            else:
                break
            if time.monotonic() + delay >= deadline:
                break
            time.sleep(delay)
            if self._recoveries() > recoveries:
                recoveries = self._recoveries()
                rounds = min(rounds, self.config.max_attempts - 1)
                failed.clear()
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


class _Scatter:
    """What the chunks of one request know of each other's replicas.

    A replica is *free* of the request -- it may take a hedge -- while no
    exchange of the request is in flight on it and, if it holds a chunk,
    once that chunk is answered and the hedging chunk has run twice as
    long as it took (plus ``hedge_delay``): a chunk that is merely a
    little slower than its siblings is not redone, one whose replica
    stalls is.  Guarded by the group's lock.
    """

    def __init__(self) -> None:
        self.inflight: Counter = Counter()
        self.free_at: Dict[ReplicaClient, float] = {}

    def free(self, replica: ReplicaClient) -> bool:
        return not self.inflight[replica] and (
            time.monotonic() >= self.free_at.get(replica, 0.0)
        )


def _gather(replies: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """One ``topk`` reply from a scattered request's chunk replies, in order.

    The first error reply stands for the whole request; otherwise results
    are concatenated and each chunk's exported spans re-keyed by their
    position in the whole request.
    """
    for reply in replies:
        if "error" in reply:
            return reply
    results: List[Dict[str, object]] = []
    spans: Dict[str, object] = {}
    for reply in replies:
        offset = len(results)
        for position, exported in (reply.get("spans") or {}).items():
            spans[str(offset + int(position))] = exported
        results.extend(reply["results"])
    gathered: Dict[str, object] = {
        "generation": min(reply["generation"] for reply in replies),
        "results": results,
    }
    if spans:
        gathered["spans"] = spans
    return gathered
