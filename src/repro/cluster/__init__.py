"""Distributed serving tier: shard servers, replica groups, a coordinator.

The package promotes the shard boundary from threads in one process
(:class:`~repro.service.sharded.ShardedEngine`) to processes on a network.
A shard server is not a module of this package: it is the one read process
of :mod:`repro.server.workers`, started with a TCP listener over one
shard's generation store, and the connection to it is that module's one
read client (``docs/SERVING.md``, "Client side").  What lives here is the
policy around them:

- :mod:`repro.cluster.hashring` -- deterministic consistent-hash ring the
  :class:`~repro.service.partition.ConsistentHashPartitioner` is built on;
- :mod:`repro.cluster.replica` -- replica clients and R-way replica
  groups: retry with backoff, hedged failover;
- :mod:`repro.cluster.supervisor` -- the replica processes: respawn with
  backoff, catch-up verified rejoin;
- :mod:`repro.cluster.coordinator` -- fan-out/merge with per-shard
  deadlines and explicit degraded answers when a whole group is down;
- :mod:`repro.cluster.frontend` -- the two parts that make
  :class:`~repro.server.app.TraceServer` the cluster tier: ``ClusterFleet``
  (read backend) and ``ShardPublisher`` (per-shard generations), paired by
  ``cluster_tier``;
- :mod:`repro.cluster.chaos` / :mod:`repro.cluster.battery` -- fault
  injection and the exactness-under-faults chaos battery.

See ``docs/DISTRIBUTED.md`` for topology, failover semantics, the
degraded-answer contract, and the catch-up protocol.
"""

from repro.cluster.hashring import ConsistentHashRing

__all__ = ["ConsistentHashRing"]
