"""Entity partitioners: deciding which shard owns which entity.

Both strategies are deterministic *across processes* -- a requirement for
snapshot round-trips and for routing updates to the shard that already
holds an entity:

* :class:`HashPartitioner` keys on a stable BLAKE2b digest of the entity
  identifier (never Python's salted ``hash()``), so the same entity always
  lands on the same shard regardless of insertion order.
* :class:`RoundRobinPartitioner` deals new entities out in rotation, which
  balances shard sizes exactly; its rotation cursor is part of the sharded
  snapshot so restored deployments keep assigning consistently.
* :class:`ConsistentHashPartitioner` routes over a
  :class:`~repro.cluster.hashring.ConsistentHashRing` (virtual-node
  consistent hashing), the cluster tier's partitioner: growing or
  shrinking the shard count remaps only ``~1/N`` of the entities, where
  :class:`HashPartitioner`'s modulo reduction would remap nearly all.
"""

from __future__ import annotations

import hashlib
from typing import Union

__all__ = [
    "PARTITIONER_KINDS",
    "ConsistentHashPartitioner",
    "HashPartitioner",
    "Partitioner",
    "RoundRobinPartitioner",
    "make_partitioner",
]


class Partitioner:
    """Assigns entities to one of ``num_shards`` shards.

    Subclasses implement :meth:`assign`, which is consulted once per *new*
    entity; the sharded engine records the decision and routes every later
    update or removal of that entity to the same shard.
    """

    #: Short identifier used by the CLI and the sharded snapshot manifest.
    kind: str = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)

    def assign(self, entity: str) -> int:
        """The shard index in ``[0, num_shards)`` for a new entity."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashPartitioner(Partitioner):
    """Stable hash partitioning on the entity identifier."""

    kind = "hash"

    def assign(self, entity: str) -> int:
        """A stable digest of the identifier, reduced modulo the shard count.

        blake2b rather than ``hash()``: assignments must agree across
        processes and Python releases (``PYTHONHASHSEED`` varies), because
        snapshots rebuild the routing table from shard membership.
        """
        digest = hashlib.blake2b(entity.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.num_shards


class RoundRobinPartitioner(Partitioner):
    """Deal new entities out in rotation (exactly balanced shard sizes)."""

    kind = "round_robin"

    def __init__(self, num_shards: int, next_shard: int = 0) -> None:
        super().__init__(num_shards)
        if not 0 <= next_shard < num_shards:
            raise ValueError(
                f"next_shard must be in [0, {num_shards}), got {next_shard}"
            )
        self.next_shard = int(next_shard)

    def assign(self, entity: str) -> int:
        """The next shard in rotation (the identifier itself is ignored)."""
        shard = self.next_shard
        self.next_shard = (self.next_shard + 1) % self.num_shards
        return shard


class ConsistentHashPartitioner(Partitioner):
    """Consistent hashing over virtual nodes -- the cluster tier's router.

    Shard ``i`` is ring node ``shard-NNN``; assignments are a pure function
    of ``(entity, num_shards)``, so the coordinator, every shard server,
    and a restored snapshot all route identically.  Compared with
    :class:`HashPartitioner`, re-sharding from ``N`` to ``N+1`` moves only
    about ``1/(N+1)`` of the entities (pinned by the cluster tests).
    """

    kind = "consistent_hash"

    def __init__(self, num_shards: int, virtual_nodes: int = 128) -> None:
        super().__init__(num_shards)
        from repro.cluster.hashring import ConsistentHashRing

        self._names = [f"shard-{index:03d}" for index in range(self.num_shards)]
        self._ring = ConsistentHashRing(self._names, virtual_nodes=virtual_nodes)
        self._index = {name: index for index, name in enumerate(self._names)}

    def assign(self, entity: str) -> int:
        """The ring owner of the entity's stable hash point."""
        return self._index[self._ring.node_for(entity)]


#: The registry of partitioners by ``kind`` name, in the order the CLI's
#: ``--partitioner`` choices list them.
PARTITIONER_KINDS = {
    cls.kind: cls
    for cls in (HashPartitioner, RoundRobinPartitioner, ConsistentHashPartitioner)
}


def make_partitioner(kind: Union[str, Partitioner], num_shards: int) -> Partitioner:
    """Resolve a partitioner argument (name or instance) against a shard count."""
    if isinstance(kind, Partitioner):
        if kind.num_shards != num_shards:
            raise ValueError(
                f"partitioner covers {kind.num_shards} shards but the engine has {num_shards}"
            )
        return kind
    cls = PARTITIONER_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown partitioner {kind!r}; expected one of {sorted(PARTITIONER_KINDS)}"
        )
    return cls(num_shards)
