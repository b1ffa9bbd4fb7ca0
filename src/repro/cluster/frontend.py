"""The replica fleet both multi-process tiers run, and the shard publisher.

:class:`ClusterFleet` is the read backend of ``repro serve --workers N``
and ``--cluster SxR`` (and the chaos battery): replica groups of read
processes (:mod:`repro.server.workers`, one TCP listener each), a
:class:`~repro.cluster.coordinator.ClusterCoordinator` answering
``/v1/topk`` over the groups, and a
:class:`~repro.cluster.supervisor.ReplicaSupervisor` (respawn with
backoff, catch-up-verified rejoin).  Over
:class:`~repro.server.frontend.GenerationPublisher`'s single store it is
one group, ``worker``, of whole-engine replicas
(:func:`~repro.server.frontend.worker_tier`); over a
:class:`ShardPublisher`, which publishes **per-shard** generations of a
:class:`~repro.service.sharded.ShardedEngine`, one group per shard
(:func:`cluster_tier`).

The fleet starts its processes without waiting for them: until every
group has had a live replica, the owner's in-process backend answers
(the owner's engine is at or past every published generation), then the
replicas do, for good.  A flush publishes every changed store's
generation *before* the events response is written, and read processes
adopt at request boundaries, so acknowledged writes are visible to every
subsequent query -- across the switch, across processes *and* replica
crashes (the chaos battery's exactness gate).

Store layout under the publisher's root::

    shard-000/  shard-001/ ...   per-shard GenerationStores (cluster tier)
    run/                         port files of the replica processes
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.replica import ClusterConfig, ReplicaClient, ReplicaGroup
from repro.cluster.supervisor import ManagedReplica, ReplicaSupervisor
from repro.server.app import EngineBackend, ServingPart, Traces
from repro.server.frontend import GenerationPublisher
from repro.server.generation import GenerationStore

__all__ = ["ClusterFleet", "ShardPublisher", "cluster_tier", "shard_name"]


def shard_name(index: int) -> str:
    """The canonical shard directory/metric name (``shard-000`` ...)."""
    return f"shard-{index:03d}"


class ShardPublisher(GenerationPublisher):
    """One generation store per shard of a built ``ShardedEngine``.

    Differs from the single-store publisher only in how a flush is shared
    out: the appended events split by owning shard (the engine routed them
    moments ago, so the assignment is recorded) while window cutoffs and
    compactions apply to every shard.  The fleet reports the per-shard
    generations inside its ``cluster`` sections, so this part adds no
    section of its own.
    """

    temp_prefix = "repro-cluster-"

    def _open_stores(self) -> None:
        if not hasattr(self.engine, "shards"):
            raise ValueError("the cluster tier needs a built ShardedEngine")
        self.stores = {
            shard_name(index): GenerationStore(self.root / shard_name(index))
            for index in range(self.engine.num_shards)
        }

    def _shares(self, appended: List[object]) -> List[tuple]:
        by_shard: Dict[int, List[object]] = {}
        for event in appended:
            by_shard.setdefault(self.engine.shard_of(event.entity), []).append(event)
        return [
            (self.stores[shard_name(index)], shard_engine, by_shard.get(index, []))
            for index, shard_engine in enumerate(self.engine.shards)
        ]

    def health(self) -> Dict[str, object]:
        """Nothing of its own: see :meth:`ClusterFleet.health`."""
        return {}

    stats = health


class ClusterFleet(ServingPart):
    """Replica groups of read processes -- the multi-process read backend.

    Owns the processes (``managed``), their clients and groups, the
    coordinator that answers a query over the groups, and the supervisor
    that respawns and re-admits replicas;
    :class:`~repro.cluster.chaos.ChaosController` and the battery inject
    faults into exactly these.  ``publisher`` is the
    :class:`~repro.server.frontend.GenerationPublisher` (one group) or
    :class:`ShardPublisher` (one group per shard) whose stores the
    replicas serve; ``replication`` is the replicas per group and
    ``cluster_config`` the timeout/retry/hedging knobs.
    """

    def __init__(
        self,
        publisher: GenerationPublisher,
        replication: int = 2,
        cluster_config: Optional[ClusterConfig] = None,
        startup_timeout: float = 60.0,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.publisher = publisher
        self.replication = replication
        self.cluster_config = cluster_config or ClusterConfig()
        self.startup_timeout = startup_timeout
        self.num_shards = len(publisher.stores)
        self.managed: Dict[str, ManagedReplica] = {}
        self.clients: Dict[str, ReplicaClient] = {}
        self.groups: List[ReplicaGroup] = []
        self.coordinator: Optional[ClusterCoordinator] = None
        self.supervisor: Optional[ReplicaSupervisor] = None
        self._owner: Optional[EngineBackend] = None
        #: Groups that have not had a live replica yet.
        self._unseen: List[ReplicaGroup] = []
        self._owner_queries = 0
        self._lock = threading.Lock()

    def start(self, owner: EngineBackend) -> None:
        """Start every replica without waiting for one; the supervisor
        brings each up as after a respawn.  Until every group has had a
        live replica, ``owner`` -- the server's in-process backend --
        answers instead."""
        run_dir = str(self.publisher.root / "run")
        for shard, store in self.publisher.stores.items():
            replicas: List[ReplicaClient] = []
            for replica_index in range(self.replication):
                name = f"{shard}-r{replica_index}"
                replica = ManagedReplica(
                    shard,
                    name,
                    store_root=str(store.root),
                    run_dir=run_dir,
                    startup_timeout=self.startup_timeout,
                )
                self.managed[name] = replica
                # Port 0 until the supervisor sees the child listening.
                client = ReplicaClient(name, replica.host, 0, config=self.cluster_config)
                self.clients[name] = client
                replicas.append(client)
            self.groups.append(ReplicaGroup(shard, replicas, config=self.cluster_config))
        # Shard stores hold partitions: the owner's dataset routes queries.
        # Whole-engine replicas resolve query entities themselves.
        partitioned = isinstance(self.publisher, ShardPublisher)
        self.coordinator = ClusterCoordinator(
            self.publisher.engine.dataset if partitioned else None, self.groups, owner.lock
        )
        self._owner, self._unseen = owner, list(self.groups)
        self.supervisor = ReplicaSupervisor(
            self.managed,
            self.clients,
            self.publisher.stores,
            config=self.cluster_config,
        )
        self.supervisor.start()

    def _owner_reads(self) -> bool:
        """Whether the owner still answers: until every group has had a
        live replica once.  The switch is one-way."""
        if not self._unseen:
            return False  # switched for good: no lock on the query path
        with self._lock:
            self._unseen = [group for group in self._unseen if not group.live_replicas()]
            return bool(self._unseen)

    def topk(
        self,
        entities: Sequence[str],
        k: int,
        approximation: float,
        traces: Traces = None,
    ) -> List[Dict[str, object]]:
        """Answer over the groups (scattered within each); sampled queries
        get the spans of :meth:`ClusterCoordinator.topk_payloads`.  Before
        the fleet is up, the owner's engine answers (``owner_queries``)."""
        if self._owner_reads():
            with self._lock:
                self._owner_queries += len(entities)
            return self._owner.topk(entities, k, approximation, traces)
        return self.coordinator.topk_payloads(list(entities), k, approximation, traces)

    def _workers(self) -> Dict[str, object]:
        """Fleet-wide process counters: replicas, chunk requests, re-sent
        exchanges (retry rounds and hedges), respawns, respawn storms, and
        queries the owner answered before the fleet was up."""
        groups = [group.snapshot()["counters"] for group in self.groups]
        supervisor = self.supervisor.snapshot()
        return {
            "workers": len(self.managed),
            "requests": sum(counters["requests"] for counters in groups),
            "retries": sum(counters["retries"] + counters["hedges"] for counters in groups),
            "respawns": sum(supervisor["respawns"].values()),
            "respawn_storms": supervisor["respawn_storms"],
            "owner_queries": self._owner_queries,
        }

    def health(self) -> Dict[str, object]:
        """Process count, cumulative ``respawns``, who answers (``reads``:
        ``owner`` until the fleet is up, then ``replicas``), the ``cluster``
        topology and per-group liveness; once the replicas answer, a group
        with no live replica turns the probe's ``status`` to ``degraded``."""
        owner = self._owner_reads()
        live = {group.shard: group.live_replicas() for group in self.groups}
        payload: Dict[str, object] = {
            "workers": len(self.managed),
            "respawns": self._workers()["respawns"],
            "reads": "owner" if owner else "replicas",
            "cluster": {
                "shards": self.num_shards,
                "replication": self.replication,
                "live_replicas": live,
                "generations": self.publisher.generations(),
            },
        }
        if not owner and any(count == 0 for count in live.values()):
            payload["status"] = "degraded"
        return payload

    def stats(self) -> Dict[str, object]:
        """The ``workers`` and ``cluster`` sections of ``/v1/stats``."""
        return {
            "workers": self._workers(),
            "cluster": {
                "coordinator": self.coordinator.snapshot(),
                "supervisor": self.supervisor.snapshot(),
                "generations": self.publisher.generations(),
            },
        }

    def close(self) -> None:
        """Close the replica connections, then SIGTERM every replica."""
        if self.supervisor is not None:  # else start() failed and cleaned up
            self.coordinator.close()
            self.supervisor.shutdown_processes()


def cluster_tier(
    engine,
    replication: int = 2,
    store_root: Optional[os.PathLike] = None,
    startup_timeout: float = 60.0,
    cluster_config: Optional[ClusterConfig] = None,
) -> Dict[str, ServingPart]:
    """The ``--cluster R`` tier as :class:`~repro.server.app.TraceServer`
    keywords: ``TraceServer(engine, **cluster_tier(engine, replication=2))``.

    ``engine`` must be a built :class:`~repro.service.sharded.ShardedEngine`;
    its shard count fixes the cluster's ``S``.
    """
    publisher = ShardPublisher(engine, store_root)
    try:
        fleet = ClusterFleet(publisher, replication, cluster_config, startup_timeout)
    except BaseException:
        publisher.close()
        raise
    return {"backend": fleet, "publisher": publisher}
