"""The cluster tier's parts: a shard-server replica fleet and its publisher.

``repro serve --cluster SxR`` (and the chaos battery) run the one
:class:`~repro.server.app.TraceServer` over a
:class:`~repro.service.sharded.ShardedEngine` with two parts from this
module plugged in (:func:`cluster_tier` builds the pair): a
:class:`ShardPublisher` publishes **per-shard** snapshot generations from
the flush hook, and a :class:`ClusterFleet` answers ``/v1/topk`` through a
:class:`~repro.cluster.coordinator.ClusterCoordinator` fanning out over
``S`` replica groups of ``R`` read processes each
(:mod:`repro.server.workers`, one TCP listener per replica), supervised by a
:class:`~repro.cluster.supervisor.ReplicaSupervisor` (respawn with
backoff, catch-up-verified rejoin).

The consistency model is the server's: a flush publishes every changed
shard's generation *before* the events response is written, and shard
servers adopt at request boundaries, so acknowledged writes are visible to
every subsequent query -- now across processes *and* replica crashes (the
chaos battery's exactness gate).

Store layout under ``store_root``::

    shard-000/  shard-001/ ...   per-shard GenerationStores
    run/                         port files of the replica processes
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.replica import ClusterConfig, ReplicaClient, ReplicaGroup
from repro.cluster.supervisor import ManagedReplica, ReplicaSupervisor
from repro.server.app import ServingPart, Traces
from repro.server.frontend import GenerationPublisher
from repro.server.generation import DELTA_CHAIN_LIMIT, GenerationStore

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
        self.stores: Dict[str, GenerationStore] = {
            shard_name(index): GenerationStore(
                self.root / shard_name(index), delta_limit=self.delta_limit
            )
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

    def generations(self) -> Dict[str, int]:
        """Newest published generation per shard store."""
        return {shard: store.generation for shard, store in self.stores.items()}

    def health(self) -> Dict[str, object]:
        """Nothing of its own: see :meth:`ClusterFleet.health`."""
        return {}

    stats = health


class ClusterFleet(ServingPart):
    """``S`` replica groups of ``R`` shard servers -- the cluster read backend.

    Owns the processes (``managed``), their clients and groups, the
    coordinator that fans a query out and merges, and the supervisor that
    respawns and re-admits replicas; :class:`~repro.cluster.chaos.ChaosController`
    and the battery inject faults into exactly these.  ``publisher`` is
    the :class:`ShardPublisher` whose stores the replicas serve;
    ``replication`` is ``R`` and ``cluster_config`` the
    timeout/retry/hedging knobs.
    """

    def __init__(
        self,
        publisher: ShardPublisher,
        replication: int = 2,
        cluster_config: Optional[ClusterConfig] = None,
        startup_timeout: float = 60.0,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.publisher = publisher
        self.replication = replication
        self.cluster_config = cluster_config or ClusterConfig(replication=replication)
        self.startup_timeout = startup_timeout
        self.num_shards = len(publisher.stores)
        self.managed: Dict[str, ManagedReplica] = {}
        self.clients: Dict[str, ReplicaClient] = {}
        self.groups: List[ReplicaGroup] = []
        self.coordinator: Optional[ClusterCoordinator] = None
        self.supervisor: Optional[ReplicaSupervisor] = None

    def start(self) -> None:
        """Start every replica, wait until each is listening (each adopts
        its shard's initial generation meanwhile, concurrently), then start
        the supervisor's respawn/rejoin loop."""
        root = self.publisher.root
        try:
            for shard in self.publisher.stores:
                replicas: List[ReplicaClient] = []
                for replica_index in range(self.replication):
                    name = f"{shard}-r{replica_index}"
                    replica = ManagedReplica(
                        shard,
                        name,
                        store_root=str(root / shard),
                        run_dir=str(root / "run"),
                        startup_timeout=self.startup_timeout,
                    )
                    self.managed[name] = replica
                    replica.start()
                    # Port 0 until the child is listening (below), exactly
                    # as after a respawn: the client follows the process.
                    client = ReplicaClient(
                        name, replica.host, 0, config=self.cluster_config
                    )
                    self.clients[name] = client
                    replicas.append(client)
                self.groups.append(
                    ReplicaGroup(shard, replicas, config=self.cluster_config)
                )
            for name, replica in self.managed.items():
                self.clients[name].set_address(
                    replica.wait_ready(self.startup_timeout)
                )
        except BaseException:
            for replica in self.managed.values():
                replica.terminate()
            raise
        self.coordinator = ClusterCoordinator(self.publisher.engine.dataset, self.groups)
        self.supervisor = ReplicaSupervisor(
            {group.shard: group for group in self.groups},
            self.managed,
            self.clients,
            self.publisher.stores,
            config=self.cluster_config,
        )
        self.supervisor.start()

    def topk(
        self,
        entities: Sequence[str],
        k: int,
        approximation: float,
        traces: Traces = None,
    ) -> List[Dict[str, object]]:
        """Fan out over the shard groups and merge; sampled queries get the
        shard-side spans of :meth:`ClusterCoordinator.topk_payloads`."""
        return self.coordinator.topk_payloads(list(entities), k, approximation, traces)

    topk_batch = topk

    def health(self) -> Dict[str, object]:
        """``cluster`` topology and per-shard liveness; a shard group with
        no live replica turns the probe's ``status`` to ``degraded``."""
        live = {group.shard: group.live_replicas() for group in self.groups}
        payload: Dict[str, object] = {
            "cluster": {
                "shards": self.num_shards,
                "replication": self.replication,
                "live_replicas": live,
                "generations": self.publisher.generations(),
            }
        }
        if any(count == 0 for count in live.values()):
            payload["status"] = "degraded"
        return payload

    def stats(self) -> Dict[str, object]:
        """The ``cluster`` section of ``/v1/stats``."""
        return {
            "cluster": {
                "coordinator": self.coordinator.snapshot(),
                "supervisor": self.supervisor.snapshot(),
                "generations": self.publisher.generations(),
            }
        }

    def close(self) -> None:
        """Close the replica connections, then SIGTERM every shard server."""
        if self.supervisor is not None:  # else start() failed and cleaned up
            self.coordinator.close()
            self.supervisor.shutdown_processes()


def cluster_tier(
    engine,
    replication: int = 2,
    store_root: Optional[os.PathLike] = None,
    startup_timeout: float = 60.0,
    delta_limit: int = DELTA_CHAIN_LIMIT,
    cluster_config: Optional[ClusterConfig] = None,
) -> Dict[str, ServingPart]:
    """The ``--cluster R`` tier as :class:`~repro.server.app.TraceServer`
    keywords: ``TraceServer(engine, **cluster_tier(engine, replication=2))``.

    ``engine`` must be a built :class:`~repro.service.sharded.ShardedEngine`;
    its shard count fixes the cluster's ``S``.
    """
    publisher = ShardPublisher(engine, store_root, delta_limit)
    try:
        fleet = ClusterFleet(publisher, replication, cluster_config, startup_timeout)
    except BaseException:
        publisher.close()
        raise
    return {"backend": fleet, "publisher": publisher}
