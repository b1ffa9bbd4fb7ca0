"""Distributed serving tier: shard servers, replica groups, a coordinator.

The package promotes the shard boundary from threads in one process
(:class:`~repro.service.sharded.ShardedEngine`) to processes on a network.
A shard server is not a module of this package: it is the one read process
of :mod:`repro.server.workers`, started with a TCP listener over one
shard's generation store, and the connection to it is that module's one
read client (``docs/SERVING.md``, "Client side").  Shard ``i`` serves the
entities :class:`~repro.service.sharded.ShardedEngine` placed on it (a
stable hash of the identifier).  What lives here is the policy around
them:

- :mod:`repro.cluster.replica` -- replica clients and replica groups:
  batch scatter, retry with backoff, hedged failover;
- :mod:`repro.cluster.supervisor` -- the replica processes: respawn with
  backoff, catch-up verified rejoin;
- :mod:`repro.cluster.coordinator` -- fan-out/merge with per-shard
  deadlines and explicit degraded answers when a whole group is down;
- :mod:`repro.cluster.frontend` -- ``ClusterFleet``, the read backend of
  both multi-process tiers (``--workers N`` is one group of whole-engine
  replicas), and ``ShardPublisher`` (per-shard generations), paired by
  ``cluster_tier``;
- :mod:`repro.cluster.chaos` / :mod:`repro.cluster.battery` -- fault
  injection and the exactness-under-faults chaos battery.

See ``docs/DISTRIBUTED.md`` for topology, failover semantics, the
degraded-answer contract, and the catch-up protocol.
"""
