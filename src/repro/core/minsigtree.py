"""The MinSigTree index (Section 4.2.2, Algorithm 1).

The MinSigTree is an ``m``-level tree that recursively partitions entities by
the *routing index* of their per-level signatures -- the position of the
largest hash value -- so that entities sharing presence patterns at every
level of the sp-index end up in the same leaf.  Each node stores:

* its routing index ``u`` (which hash function the group maximises), and
* the group-level signature value at that index, ``SIG_N[u]`` -- the minimum
  of the member entities' values there, which is what the partial-pruned-set
  bound of Section 5.1 needs;
* optionally the full group-level signature vector (``store_full_signatures``)
  to support the tighter, more storage-hungry pruned sets of Section 4.2.2 --
  kept as an ablation knob.

Leaves (at tree level ``m``) own the entity lists.  The index supports
incremental updates (Section 4.2.3): inserting a new entity, removing one,
and re-signing an existing entity after new trace records arrive.

Queries never walk the nodes -- they run on the compiled columnar kernel
(:mod:`repro.core.columnar`) -- so a tree restored from a snapshot keeps its
validated arrays and builds the nodes only when it is first mutated or
walked (:meth:`MinSigTree.import_structure`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["MinSigTree", "MinSigTreeNode"]


@dataclass
class MinSigTreeNode:
    """One node of the MinSigTree.

    ``level`` is the tree level: 0 for the virtual root, 1..m for signature
    levels; nodes at level ``m`` are leaves and carry entities.
    """

    level: int
    routing_index: int = -1
    routing_value: int = 0
    parent: Optional["MinSigTreeNode"] = None
    children: Dict[int, "MinSigTreeNode"] = field(default_factory=dict)
    entities: List[str] = field(default_factory=list)
    full_signature: Optional[np.ndarray] = None

    @property
    def is_root(self) -> bool:
        """Whether this is the virtual root node."""
        return self.level == 0

    def child(self, routing_index: int) -> Optional["MinSigTreeNode"]:
        """The child with the given routing index, if any."""
        return self.children.get(routing_index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "root" if self.is_root else ("leaf" if not self.children else "node")
        return (
            f"MinSigTreeNode({kind}, level={self.level}, u={self.routing_index}, "
            f"value={self.routing_value}, children={len(self.children)}, "
            f"entities={len(self.entities)})"
        )


class MinSigTree:
    """The MinSigTree index over a set of entity signature matrices.

    Parameters
    ----------
    num_levels:
        Depth ``m`` of the sp-index (and of the tree).
    num_hashes:
        Signature dimensionality ``n_h``; the maximal fan-out of every node.
    store_full_signatures:
        When true every node keeps the full group-level signature vector,
        enabling the (tighter) full pruned sets at ``n_h`` times the per-node
        storage cost.  The paper's default -- and ours -- is to store only the
        routing-index value.
    routing_strategy:
        ``"argmax"`` (the paper's grouping principle: route on the position of
        the largest hash value, which keeps group-level signatures from
        collapsing towards zero) or ``"random"`` (ablation: route on a
        position chosen pseudo-randomly per entity and level).
    """

    def __init__(
        self,
        num_levels: int,
        num_hashes: int,
        store_full_signatures: bool = False,
        routing_strategy: str = "argmax",
    ) -> None:
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {num_levels}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        if routing_strategy not in ("argmax", "random"):
            raise ValueError(f"unknown routing strategy {routing_strategy!r}")
        self.num_levels = num_levels
        self.num_hashes = num_hashes
        self.store_full_signatures = store_full_signatures
        self.routing_strategy = routing_strategy
        # The nodes are built on first use (see ``root``): from ``_flat``
        # for a tree restored by import_structure, empty otherwise.
        self._root: Optional[MinSigTreeNode] = None
        self._flat: Optional[_FlatStructure] = None
        self._build_lock = threading.Lock()
        self._signatures: Dict[str, np.ndarray] = {}
        self._leaf_of: Dict[str, MinSigTreeNode] = {}
        #: Number of removals (including the removal half of :meth:`update`)
        #: that left a surviving ancestor's group-level signature potentially
        #: looser than the minimum over its remaining members.  Loose values
        #: are still valid lower bounds -- results are never affected -- but
        #: pruning weakens as they accumulate; :meth:`rebuild` re-tightens
        #: and resets the counter.  This is a tightness diagnostic for
        #: operators and tests deciding when an explicit compaction is worth
        #: its cost; the streaming layer's *automatic* trigger
        #: (``compact_after``) counts index-changing retractions itself --
        #: see :class:`repro.streaming.window.SlidingWindow`.
        self.loose_operations: int = 0
        #: Monotone counter bumped by every structural change (insert,
        #: remove, update, rebuild).  The columnar query kernel records the
        #: value its flattened arrays were compiled at and recompiles
        #: lazily when it moved.
        self.mutation_count: int = 0
        # Touch journal: entity -> mutation_count at its last insert/remove.
        # ``touched_entities_since`` answers "what changed since count c" for
        # the columnar kernel's incremental patch; ``_touched_floor`` marks
        # the oldest count the journal still covers (rebuild resets it, so
        # consumers stamped before a rebuild fall back to a full recompile).
        self._touched: Dict[str, int] = {}
        self._touched_floor: int = 0

    @property
    def root(self) -> MinSigTreeNode:
        """The virtual root (the nodes of a restored tree are built first)."""
        return self._ensure_built()

    def _ensure_built(self) -> MinSigTreeNode:
        """The root, building the nodes first if they are not built yet."""
        root = self._root
        if root is not None:
            return root
        with self._build_lock:
            if self._root is None:
                flat = self._flat
                # Publish the maps, then the root, and only then drop the
                # arrays: a concurrent reader sees one complete state.
                self._root = MinSigTreeNode(level=0) if flat is None else self._build_nodes(flat)
                self._flat = None
            return self._root

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        signatures: Dict[str, np.ndarray],
        num_levels: int,
        num_hashes: int,
        store_full_signatures: bool = False,
        routing_strategy: str = "argmax",
    ) -> "MinSigTree":
        """Build a MinSigTree from per-entity signature matrices (Algorithm 1).

        ``signatures`` maps each entity to its ``(m, n_h)`` signature matrix.
        The construction is equivalent to the paper's breadth-first grouping:
        entities are routed level by level on the arg-max position of the
        corresponding signature row, and each node's group-level signature is
        the element-wise minimum over its members.
        """
        tree = cls(num_levels, num_hashes, store_full_signatures, routing_strategy)
        for entity, matrix in signatures.items():
            tree.insert(entity, matrix)
        return tree

    def _validate_matrix(self, entity: str, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (self.num_levels, self.num_hashes):
            raise ValueError(
                f"signature matrix of {entity!r} has shape {matrix.shape}, "
                f"expected {(self.num_levels, self.num_hashes)}"
            )
        return matrix

    def insert(self, entity: str, signature_matrix: np.ndarray) -> MinSigTreeNode:
        """Insert a new entity, creating nodes along its routing path as needed.

        Returns the leaf the entity was placed in.

        Raises
        ------
        ValueError
            If the entity is already indexed (use :meth:`update` instead).
        """
        node = self.root
        if entity in self._signatures:
            raise ValueError(f"entity {entity!r} is already indexed; use update()")
        matrix = self._validate_matrix(entity, signature_matrix)
        self.mutation_count += 1
        self._record_touch(entity)
        for level, routing_index in enumerate(self._routes(entity, matrix), start=1):
            row = matrix[level - 1]
            child = node.children.get(routing_index)
            if child is None:
                child = MinSigTreeNode(
                    level=level,
                    routing_index=routing_index,
                    routing_value=int(row[routing_index]),
                    parent=node,
                    full_signature=row.copy() if self.store_full_signatures else None,
                )
                node.children[routing_index] = child
            else:
                # The group-level signature is the element-wise minimum of all
                # member signatures, so inserting can only lower the stored
                # values (keeping them valid lower bounds).
                child.routing_value = min(child.routing_value, int(row[routing_index]))
                if self.store_full_signatures and child.full_signature is not None:
                    np.minimum(child.full_signature, row, out=child.full_signature)
            node = child
        node.entities.append(entity)
        self._signatures[entity] = matrix
        self._leaf_of[entity] = node
        return node

    def _routes(self, entity: str, matrix: np.ndarray) -> List[int]:
        """Routing index of every level (1 first) under the configured strategy."""
        if self.routing_strategy == "argmax":
            return matrix.argmax(axis=1).tolist()
        # Random ablation: deterministic pseudo-random position per entity/level.
        return [hash((entity, level)) % self.num_hashes for level in range(1, self.num_levels + 1)]

    def remove(self, entity: str) -> None:
        """Remove an entity from the index.

        Empty nodes along the path are pruned.  Group-level signature values
        of the remaining ancestors are *not* re-tightened (they stay valid
        lower bounds); call :meth:`rebuild` to re-tighten after many removals.
        """
        self._ensure_built()
        leaf = self._leaf_of.pop(entity, None)
        if leaf is None:
            raise KeyError(f"entity {entity!r} is not indexed")
        self.mutation_count += 1
        self._record_touch(entity)
        del self._signatures[entity]
        leaf.entities.remove(entity)
        node: Optional[MinSigTreeNode] = leaf
        while node is not None and not node.is_root and not node.entities and not node.children:
            parent = node.parent
            if parent is not None:
                del parent.children[node.routing_index]
            node = parent
        if node is not None and not node.is_root:
            # At least one ancestor with other members survives; its stored
            # minimum may now be looser than its remaining members justify.
            self.loose_operations += 1

    def update(self, entity: str, signature_matrix: np.ndarray) -> MinSigTreeNode:
        """Re-index an existing entity with a new signature matrix.

        This is the Section 4.2.3 update path: locate and remove the entity,
        then insert it along the path of its new signatures.  New entities are
        accepted too (the removal step is skipped), matching the experiment of
        Figure 7.9 which mixes new and existing entities.
        """
        if entity in self:
            self.remove(entity)
        return self.insert(entity, signature_matrix)

    def rebuild(self) -> None:
        """Recompute every node's group-level signature from current members.

        Useful after many removals, when stored values may have become looser
        than necessary (they are never incorrect, only less effective for
        pruning).
        """
        self._ensure_built()
        signatures = dict(self._signatures)
        self._root = MinSigTreeNode(level=0)
        self._signatures.clear()
        self._leaf_of.clear()
        self.loose_operations = 0
        for entity, matrix in signatures.items():
            self.insert(entity, matrix)
        # A rebuild touches everything: reset the journal and raise its
        # floor, so kernels compiled before it take the full-recompile
        # (compaction) path instead of patching the whole population.
        self._touched.clear()
        self._touched_floor = self.mutation_count

    def _record_touch(self, entity: str) -> None:
        self._touched[entity] = self.mutation_count
        # Overflow valve: a journal much larger than the population costs
        # more to scan than the fallback it enables saves.  Resetting the
        # floor makes older consumers recompile once, which is always safe.
        if len(self._touched) > max(1024, 4 * len(self._signatures)):
            self._touched.clear()
            self._touched_floor = self.mutation_count

    def touched_entities_since(self, mutation_count: int) -> Optional[set]:
        """Entities inserted or removed after ``mutation_count``.

        Answers from the touch journal; returns ``None`` when the journal
        no longer reaches back that far (the count predates a
        :meth:`rebuild` or an overflow reset), in which case callers must
        treat *every* entity as potentially touched.
        """
        if mutation_count < self._touched_floor:
            return None
        if mutation_count >= self.mutation_count:
            return set()
        return {
            entity
            for entity, touched_at in self._touched.items()
            if touched_at > mutation_count
        }

    # ------------------------------------------------------------------
    # Structure export / import (the snapshot codec)
    # ------------------------------------------------------------------
    def export_structure(self, signature_dtype: np.dtype = np.int64) -> Dict[str, object]:
        """Flatten the tree into plain arrays for serialization.

        Nodes are laid out in DFS order (the virtual root at index 0) as
        parallel arrays; entities are listed in leaf-DFS order with their
        leaf's node index and their signature matrices stacked in the same
        order.  The arrays capture the tree *exactly* -- including routing
        values left loose by :meth:`remove` -- so a tree restored with
        :meth:`import_structure` prunes and traverses identically.

        ``signature_dtype`` is the type the signature matrices (and full
        signatures) are stacked in; it must hold every value up to the hash
        range.  Snapshots pass the narrowest such type, so the int64 block
        is never copied whole.
        """
        nodes = list(self.iter_nodes())
        index_of = {id(node): position for position, node in enumerate(nodes)}
        node_level = np.array([node.level for node in nodes], dtype=np.int32)
        node_routing_index = np.array([node.routing_index for node in nodes], dtype=np.int32)
        node_routing_value = np.array([node.routing_value for node in nodes], dtype=np.int64)
        node_parent = np.array(
            [-1 if node.parent is None else index_of[id(node.parent)] for node in nodes],
            dtype=np.int32,
        )
        entities: List[str] = []
        entity_leaf: List[int] = []
        for position, node in enumerate(nodes):
            for entity in node.entities:
                entities.append(entity)
                entity_leaf.append(position)
        if entities:
            signatures = np.stack(
                [self._signatures[entity] for entity in entities],
                dtype=signature_dtype,
                casting="unsafe",
            )
        else:
            signatures = np.empty((0, self.num_levels, self.num_hashes), dtype=signature_dtype)
        structure: Dict[str, object] = {
            "node_level": node_level,
            "node_routing_index": node_routing_index,
            "node_routing_value": node_routing_value,
            "node_parent": node_parent,
            "entities": entities,
            "entity_leaf": np.array(entity_leaf, dtype=np.int32),
            "signatures": signatures,
        }
        if self.store_full_signatures:
            full = np.zeros((len(nodes), self.num_hashes), dtype=signature_dtype)
            for position, node in enumerate(nodes):
                if node.full_signature is not None:
                    full[position] = node.full_signature
            structure["node_full_signatures"] = full
        return structure

    @classmethod
    def import_structure(
        cls,
        structure: Dict[str, object],
        num_levels: int,
        num_hashes: int,
        store_full_signatures: bool = False,
        routing_strategy: str = "argmax",
    ) -> "MinSigTree":
        """Restore a tree from :meth:`export_structure` arrays.

        The arrays are validated here (raising ``ValueError``) and kept; the
        nodes and the int64 signature rows are built at the first mutation
        or structural read.  Until then :attr:`num_entities`, ``in``,
        :attr:`num_nodes`, :meth:`size_bytes`, :meth:`touched_entities_since`
        and :attr:`mutation_count` answer from the arrays -- all a process
        serving queries from the compiled kernel asks of the tree.  The build
        wires nodes directly instead of re-inserting entities, so group-level
        signature values (and hence pruning behaviour and query statistics)
        match the exported tree exactly.
        """
        tree = cls(num_levels, num_hashes, store_full_signatures, routing_strategy)
        tree._flat = _FlatStructure.validated(
            structure, num_levels, num_hashes, store_full_signatures
        )
        return tree

    def _build_nodes(self, flat: "_FlatStructure") -> MinSigTreeNode:
        """Wire the nodes and signature rows of ``flat``; returns the root."""
        node_level = flat.node_level.tolist()
        node_routing_index = flat.node_routing_index.tolist()
        node_routing_value = flat.node_routing_value.tolist()
        node_parent = flat.node_parent.tolist()
        # Signatures may arrive narrower than int64 (snapshots store them at
        # the hash range's width); the tree always holds them as int64.
        full_rows = None if flat.full_signatures is None else flat.full_signatures.astype(np.int64)
        root = MinSigTreeNode(level=0)
        nodes: List[MinSigTreeNode] = [root]
        for position in range(1, len(node_level)):
            parent = nodes[node_parent[position]]
            node = MinSigTreeNode(
                level=node_level[position],
                routing_index=node_routing_index[position],
                routing_value=node_routing_value[position],
                parent=parent,
                full_signature=None if full_rows is None else full_rows[position].copy(),
            )
            parent.children[node.routing_index] = node
            nodes.append(node)
        signatures = flat.signatures.astype(np.int64)
        for slot, (entity, leaf_index) in enumerate(zip(flat.entities, flat.entity_leaf.tolist())):
            leaf = nodes[leaf_index]
            leaf.entities.append(entity)
            self._signatures[entity] = signatures[slot]
            self._leaf_of[entity] = leaf
        return root

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        """Number of entities currently indexed."""
        flat = self._flat
        return len(self._signatures) if flat is None else len(flat.entities)

    def __contains__(self, entity: str) -> bool:
        flat = self._flat
        return entity in (self._signatures if flat is None else flat.members)

    def signature_of(self, entity: str) -> np.ndarray:
        """The signature matrix the entity was last indexed with."""
        self._ensure_built()
        try:
            return self._signatures[entity]
        except KeyError:
            raise KeyError(f"entity {entity!r} is not indexed") from None

    def leaf_of(self, entity: str) -> MinSigTreeNode:
        """The leaf currently containing ``entity``."""
        self._ensure_built()
        try:
            return self._leaf_of[entity]
        except KeyError:
            raise KeyError(f"entity {entity!r} is not indexed") from None

    def iter_nodes(self) -> Iterator[MinSigTreeNode]:
        """Depth-first iteration over all nodes (root first)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            # Sort for determinism of traversal order.
            stack.extend(node.children[key] for key in sorted(node.children, reverse=True))

    def leaves(self) -> List[MinSigTreeNode]:
        """All leaf nodes in depth-first order."""
        return [node for node in self.iter_nodes() if not node.is_root and not node.children]

    def leaf_order(self) -> Dict[str, int]:
        """Position of every entity when leaves are laid out in DFS order.

        Closely associated entities end up adjacent.  A structural probe:
        the snapshot and bulk-equivalence suites compare it across rebuilds
        (the layout queries read is ``ColumnarTree.entity_order``).
        """
        order: Dict[str, int] = {}
        position = 0
        for leaf in self.leaves():
            for entity in leaf.entities:
                order[entity] = position
                position += 1
        return order

    @property
    def num_nodes(self) -> int:
        """Number of nodes excluding the virtual root."""
        flat = self._flat
        if flat is not None:
            return flat.node_parent.size - 1
        return sum(1 for node in self.iter_nodes() if not node.is_root)

    def size_bytes(self) -> int:
        """Approximate index size in bytes.

        Each node stores two integers (routing index and value) plus, for
        leaves, one pointer per entity; with ``store_full_signatures`` every
        node additionally stores ``n_h`` integers.  Mirrors the accounting in
        Figure 7.8(b).
        """
        per_node = 2 * 8
        if self.store_full_signatures:
            per_node += self.num_hashes * 8
        flat = self._flat
        if flat is not None:
            return per_node * (flat.node_parent.size - 1) + 8 * flat.leaf_members()
        total = 0
        for node in self.iter_nodes():
            if node.is_root:
                continue
            total += per_node
            if not node.children:
                total += 8 * len(node.entities)
        return total

    def depth_histogram(self) -> Dict[int, int]:
        """Number of nodes per tree level (diagnostics and tests)."""
        histogram: Dict[int, int] = {}
        for node in self.iter_nodes():
            if node.is_root:
                continue
            histogram[node.level] = histogram.get(node.level, 0) + 1
        return histogram

    def path_to_leaf(self, entity: str) -> Tuple[MinSigTreeNode, ...]:
        """The root-to-leaf node path of an indexed entity (excluding the root)."""
        leaf = self.leaf_of(entity)
        path: List[MinSigTreeNode] = []
        node: Optional[MinSigTreeNode] = leaf
        while node is not None and not node.is_root:
            path.append(node)
            node = node.parent
        return tuple(reversed(path))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MinSigTree(entities={self.num_entities}, nodes={self.num_nodes}, "
            f"levels={self.num_levels}, num_hashes={self.num_hashes})"
        )


@dataclass(frozen=True)
class _FlatStructure:
    """Validated :meth:`MinSigTree.export_structure` arrays of a restored tree.

    Held until the tree builds its nodes; every check the build would
    otherwise trip over is made up front, so the build cannot fail.
    """

    node_level: np.ndarray
    node_routing_index: np.ndarray
    node_routing_value: np.ndarray
    node_parent: np.ndarray
    full_signatures: Optional[np.ndarray]
    entities: List[str]
    members: FrozenSet[str]
    entity_leaf: np.ndarray
    signatures: np.ndarray

    @classmethod
    def validated(
        cls,
        structure: Dict[str, object],
        num_levels: int,
        num_hashes: int,
        store_full_signatures: bool,
    ) -> "_FlatStructure":
        """Check ``structure`` with array operations; raises ``ValueError``."""
        level, routing_index, routing_value, parent = (
            np.asarray(structure[name])
            for name in ("node_level", "node_routing_index", "node_routing_value", "node_parent")
        )
        count = parent.size
        if any(
            array.shape != (count,) or not np.issubdtype(array.dtype, np.integer)
            for array in (level, routing_index, routing_value, parent)
        ):
            raise ValueError(
                "malformed tree structure: node arrays are not integer columns of one length"
            )
        if not count or level[0] != 0 or parent[0] != -1:
            raise ValueError("malformed tree structure: missing virtual root at index 0")
        position = np.arange(1, count)
        orphans = np.flatnonzero((parent[1:] < 0) | (parent[1:] >= position))
        if orphans.size:
            node = int(position[orphans[0]])
            raise ValueError(
                f"malformed tree structure: node {node} has parent {int(parent[node])}"
            )
        # Sort siblings by routing index, ties by position: a repeat is a
        # node whose predecessor in that order shares its parent and index.
        order = np.lexsort((position, routing_index[1:], parent[1:]))
        sorted_parent, sorted_index = parent[1:][order], routing_index[1:][order]
        repeats = (sorted_parent[1:] == sorted_parent[:-1]) & (
            sorted_index[1:] == sorted_index[:-1]
        )
        if repeats.any():
            node = int(position[order][1:][repeats].min())
            raise ValueError(
                f"malformed tree structure: node {node} repeats a sibling's "
                f"routing index {int(routing_index[node])}"
            )
        entities = list(structure["entities"])
        members = frozenset(entities)
        if len(members) != len(entities):
            raise ValueError("malformed tree structure: an entity is listed twice")
        entity_leaf = np.asarray(structure["entity_leaf"])
        if (
            entity_leaf.shape != (len(entities),)
            or not np.issubdtype(entity_leaf.dtype, np.integer)
            or (entity_leaf.size and (entity_leaf.min() < 0 or entity_leaf.max() >= count))
        ):
            raise ValueError("malformed tree structure: entity_leaf must name one node per entity")
        signatures = np.asarray(structure["signatures"])
        if signatures.shape != (len(entities), num_levels, num_hashes):
            raise ValueError(
                f"signature block has shape {signatures.shape}, expected "
                f"{(len(entities), num_levels, num_hashes)}"
            )
        full = structure.get("node_full_signatures")
        full = np.asarray(full) if store_full_signatures and full is not None else None
        if full is not None and full.shape != (count, num_hashes):
            raise ValueError(
                f"full signature block has shape {full.shape}, expected {(count, num_hashes)}"
            )
        return cls(
            level, routing_index, routing_value, parent, full,
            entities, members, entity_leaf, signatures,
        )

    def leaf_members(self) -> int:
        """Entities placed on a non-root childless node (what ``size_bytes`` counts)."""
        has_child = np.zeros(self.node_parent.size, dtype=bool)
        has_child[self.node_parent[1:]] = True
        placed = self.entity_leaf[self.entity_leaf != 0]
        return int(np.count_nonzero(~has_child[placed]))
