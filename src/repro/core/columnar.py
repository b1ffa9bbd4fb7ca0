"""The columnar query kernel: a flattened MinSigTree plus vectorised search.

The reference traversal (:func:`repro.baselines.reference_search`, the test
oracle) walks the pointer-based :class:`~repro.core.minsigtree.MinSigTree`
one child at a time: every child costs one ``PruningState.refine`` (fresh
per-level numpy masks) and one Theorem 4 bound evaluation, and every
candidate entity costs one Python-set ``level_overlaps`` pass.  At serving
rates that interpreter overhead -- not the index -- is the bottleneck.

This module compiles the tree (and the dataset's per-level cell membership)
into contiguous arrays once, so the search can:

* refine pruning masks and evaluate the Theorem 4 bound for **every node of
  the tree in one vectorised pass per query**: the query's cells of every
  sp-index level are laid out on one concatenated axis, each node's direct
  pruning row is one gather + compare over the whole tree, cumulative
  root-to-node masks are an OR per tree level (Theorem 3 -- descendant
  pruned sets contain ancestor pruned sets -- is literally a running OR, and
  BFS layout keeps levels contiguous), per-level survivor counts are one
  ``reduceat``, and the measure scores the whole node batch through
  per-level bound tables
  (:meth:`~repro.measures.base.AssociationMeasure.bound_batch_kernel`); and
* score **all candidate entities in one sparse-intersection pass** over a
  combined entity×level CSR cell-membership matrix, instead of per-entity
  Python set math per leaf.

There is no best-first walk.  Algorithm 2's queue holds each node at its
path bound (``min(parent's, own)``) and breaks ties by push order, so the
order it pops nodes in is one ``lexsort`` of the path-bound arrays
(:meth:`ColumnarQueryContext.pop_order`); ``TopKSearcher.search`` replays
the walk's answer and every counter along that order.

Layout
------
Nodes are laid out breadth-first with the virtual root at index 0; a node's
children occupy the contiguous span ``[child_start[n], child_end[n])`` *in
the same order the reference search iterates them*, so BFS order among
siblings is the walk's push order.  Leaf entities occupy spans
``[entity_start[n], entity_end[n])`` of one frozen entity order.  Dataset
cells are interned per level into one combined id space: ``cell_codes[c]``
is cell ``c`` as the integer ``time * |units| + unit code`` (the
:class:`~repro.traces.events.CellTable` coding), ascending within each
level, and ``level_cell_offset[l]`` marks each level's id range.  The
membership CSR stores one segment per ``(entity, level)`` pair --
``member_indptr`` has ``n_entities * m + 1`` offsets -- so a whole leaf's
per-level overlap counts are one gather plus one ``reduceat``.

Invalidation
------------
A compiled tree records the ``mutation_count`` of the tree and dataset it
was built from and is recompiled lazily (on the next search) once either
moved -- streaming flushes, expiries, and compactions therefore invalidate
it automatically without touching the query API.

Incremental maintenance
-----------------------
Recompiling from scratch costs time proportional to the whole dataset, which
caps sustained ingest rates: a micro-batch touching three entities should
not pay for three hundred thousand.  :meth:`ColumnarTree.patch` therefore
rebuilds only what a mutation can change: the tree/node arrays are
re-flattened (cheap pointer walking, no per-cell work), while the expensive
entity×level membership CSR is spliced -- rows of untouched entities are
reused from the stale arrays (translated through a vectorised cell-id
remapping when the interned cell tables shifted) and only the *touched*
entities, reported by the :class:`~repro.core.minsigtree.MinSigTree` and
:class:`~repro.traces.dataset.TraceDataset` touch journals, are recomputed
from their traces.  The patched arrays are byte-identical to a fresh
:meth:`ColumnarTree.compile` -- cell interning is globally sorted per level,
so ids never depend on discovery order -- and a staleness ratio above
``max_staleness`` falls back to the full recompile (the compaction path;
``compact()`` additionally resets the touch journals, forcing it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.minsigtree import MinSigTree
from repro.core.pruning import InvalidQuerySequence, QueryHashes
from repro.measures.base import AssociationMeasure
from repro.traces.dataset import TraceDataset
from repro.traces.events import CellSequence, CellTable
from repro.traces.spatial import SpatialHierarchy

__all__ = [
    "ColumnarTree",
    "ColumnarQueryContext",
    "load_npz_mmap",
]


def load_npz_mmap(path) -> Optional[Dict[str, np.ndarray]]:
    """Load an uncompressed ``.npz`` archive as read-only memory-mapped views.

    ``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for
    ``.npz`` archives (it only maps bare ``.npy`` files), so this helper does
    the work itself: for every ZIP member stored without compression
    (``np.savez`` stores, never deflates) it finds the member's data bytes
    through the ZIP local file header, parses the ``.npy`` header, and wraps
    the payload in a ``np.memmap`` view into the archive file.  N processes
    mapping the same snapshot this way share one physical copy of the
    compiled arrays through the OS page cache -- the zero-copy property the
    multi-process serving tier relies on (see docs/SERVING.md).

    Returns ``None`` whenever any member cannot be mapped (a compressed
    member, an object dtype, a malformed or unsupported header): callers
    fall back to a regular ``np.load``.  The views are opened read-only;
    writing through them raises.
    """
    import zipfile

    arrays: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        with open(path, "rb") as handle:
            for info in members:
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                name = info.filename
                key = name[:-4] if name.endswith(".npy") else name
                # The central directory's extra-field length can differ from
                # the local header's, so the data offset must come from the
                # local header itself.
                handle.seek(info.header_offset)
                local = handle.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    return None
                name_length = int.from_bytes(local[26:28], "little")
                extra_length = int.from_bytes(local[28:30], "little")
                handle.seek(info.header_offset + 30 + name_length + extra_length)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:
                    return None
                if dtype.hasobject:
                    return None
                if int(np.prod(shape, dtype=np.int64)) == 0:
                    # mmap cannot express a zero-byte span; an empty array
                    # has no payload to share anyway.
                    arrays[key] = np.zeros(shape, dtype=dtype)
                    continue
                arrays[key] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=handle.tell(),
                    shape=shape,
                    order="F" if fortran else "C",
                )
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    return arrays


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, source: np.ndarray, num_levels: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(member_indptr, member_indices)`` of entities ``source`` of a CSR, in one gather."""
    segments = (source[:, None] * num_levels + np.arange(num_levels)).ravel()
    starts = indptr[segments]
    lengths = indptr[segments + 1] - starts
    member_indptr = np.zeros(segments.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=member_indptr[1:])
    offsets = np.repeat(starts - member_indptr[:-1], lengths)
    return member_indptr, indices[offsets + np.arange(member_indptr[-1])]


class ColumnarTree:
    """A MinSigTree (plus dataset cell membership) flattened into arrays.

    Build one with :meth:`compile`; instances are immutable by convention
    and keyed to the exact tree/dataset state they were compiled from (see
    :meth:`matches`).  All arrays are documented in the module docstring.
    """

    def __init__(
        self,
        num_levels: int,
        num_hashes: int,
        node_level: np.ndarray,
        node_parent: np.ndarray,
        node_routing_index: np.ndarray,
        node_routing_value: np.ndarray,
        child_start: np.ndarray,
        child_end: np.ndarray,
        entity_start: np.ndarray,
        entity_end: np.ndarray,
        entity_order: Tuple[str, ...],
        units: Tuple[str, ...],
        cell_codes: np.ndarray,
        level_cell_offset: np.ndarray,
        member_indptr: np.ndarray,
        member_indices: np.ndarray,
        node_full_signatures: Optional[np.ndarray] = None,
    ) -> None:
        self.num_levels = int(num_levels)
        self.num_hashes = int(num_hashes)
        self.node_level = node_level
        self.node_parent = node_parent
        self.node_routing_index = node_routing_index
        self.node_routing_value = node_routing_value
        self.child_start = child_start
        self.child_end = child_end
        self.entity_start = entity_start
        self.entity_end = entity_end
        self.entity_order = entity_order
        #: :meth:`SpatialHierarchy.coded_units` -- unit code -> unit id.
        self.units = units
        self.unit_code: Dict[str, int] = {unit: code for code, unit in enumerate(units)}
        #: Code of every interned cell, ascending within each level.
        self.cell_codes = cell_codes
        #: Combined-id offset of each level's cell range (length ``m + 1``).
        self.level_cell_offset = level_cell_offset
        self.member_indptr = member_indptr
        self.member_indices = member_indices
        self.node_full_signatures = node_full_signatures
        #: Slot of every entity in :attr:`entity_order`.
        self.entity_slot = {entity: slot for slot, entity in enumerate(entity_order)}
        #: Per-entity per-level set sizes ``|A_l|`` in the frozen order,
        #: shape ``(n_entities, m)`` -- the diffs of the per-(entity, level)
        #: CSR segments.
        self.entity_level_sizes = np.diff(member_indptr).reshape(
            len(entity_order), self.num_levels
        )
        self._tree_ref: Optional[MinSigTree] = None
        self._tree_mutation = -1
        self._dataset_ref: Optional[TraceDataset] = None
        self._dataset_mutation = -1

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @staticmethod
    def _flatten_structure(tree: MinSigTree) -> Tuple[List, Dict[str, np.ndarray], List[str]]:
        """BFS-flatten the tree's node structure into parallel arrays.

        Shared by :meth:`compile` and :meth:`patch` so both produce exactly
        the same node layout.  Children are laid out in the order
        ``node.children.values()`` iterates them (the order the reference
        search pushes them), which is what keeps tie-breaking identical.
        Returns the BFS node list, the structure arrays, and the frozen
        leaf-entity order.
        """
        nodes = [tree.root]
        read = 0
        while read < len(nodes):
            nodes.extend(nodes[read].children.values())
            read += 1
        count = len(nodes)
        position_of = {id(node): position for position, node in enumerate(nodes)}

        node_level = np.fromiter((node.level for node in nodes), dtype=np.int32, count=count)
        node_parent = np.fromiter(
            (
                -1 if node.parent is None else position_of[id(node.parent)]
                for node in nodes
            ),
            dtype=np.int64,
            count=count,
        )
        node_routing_index = np.fromiter(
            (node.routing_index for node in nodes), dtype=np.int32, count=count
        )
        node_routing_value = np.fromiter(
            (node.routing_value for node in nodes), dtype=np.int64, count=count
        )
        child_start = np.zeros(count, dtype=np.int64)
        child_end = np.zeros(count, dtype=np.int64)
        entity_start = np.zeros(count, dtype=np.int64)
        entity_end = np.zeros(count, dtype=np.int64)
        entity_order: List[str] = []
        for position, node in enumerate(nodes):
            if node.children:
                children = list(node.children.values())
                child_start[position] = position_of[id(children[0])]
                child_end[position] = child_start[position] + len(children)
            if node.entities:
                entity_start[position] = len(entity_order)
                entity_order.extend(node.entities)
                entity_end[position] = len(entity_order)
        arrays = {
            "node_level": node_level,
            "node_parent": node_parent,
            "node_routing_index": node_routing_index,
            "node_routing_value": node_routing_value,
            "child_start": child_start,
            "child_end": child_end,
            "entity_start": entity_start,
            "entity_end": entity_end,
        }
        return nodes, arrays, entity_order

    @classmethod
    def compile(
        cls, tree: MinSigTree, dataset: TraceDataset, table: Optional[CellTable] = None
    ) -> "ColumnarTree":
        """Flatten ``tree`` and ``dataset`` membership into a columnar kernel.

        Every indexed entity must carry a trace in ``dataset`` -- the engine
        maintains that invariant through every build/update/expiry path.
        ``table`` is ``dataset.cell_table()``, passed by a caller that holds
        it already (``build()``).  Cells are interned per level in globally
        sorted order, so interned ids depend only on the set of cells present
        -- never on discovery order -- which is what lets :meth:`patch`
        splice updated membership rows into stale arrays byte-identically.
        """
        nodes, structure, entity_order = cls._flatten_structure(tree)

        full_signatures: Optional[np.ndarray] = None
        if tree.store_full_signatures:
            full_signatures = np.zeros((len(nodes), tree.num_hashes), dtype=np.int64)
            for position, node in enumerate(nodes):
                if node.full_signature is not None:
                    full_signatures[position] = node.full_signature

        # Membership comes straight from the dataset's cell table: its
        # universe is each level's distinct cells in sorted order (the
        # interning order), its CSR the (entity, level) rows, gathered into
        # leaf order and renumbered to the cells they use (a tree over part
        # of the dataset interns its own entities' cells only).
        num_levels = tree.num_levels
        if dataset.num_levels != num_levels:
            raise ValueError(
                f"the dataset has {dataset.num_levels}-level sequences; "
                f"the tree indexes {num_levels} levels"
            )
        if table is None:
            table = dataset.cell_table()
        row_of = {entity: row for row, entity in enumerate(dataset.entities)}
        source = np.array([row_of[entity] for entity in entity_order], dtype=np.int64)
        member_indptr, rows = _gather_rows(table.indptr, table.indices, source, num_levels)
        used = np.zeros(table.num_cells, dtype=bool)
        used[rows] = True
        kept_before = np.concatenate(([0], np.cumsum(used)))

        compiled = cls(
            num_levels=num_levels,
            num_hashes=tree.num_hashes,
            entity_order=tuple(entity_order),
            units=table.units,
            cell_codes=(table.times * len(table.units) + table.unit_codes)[used],
            level_cell_offset=kept_before[table.level_offsets],
            member_indptr=member_indptr,
            member_indices=kept_before[rows],
            node_full_signatures=full_signatures,
            **structure,
        )
        compiled.stamp(tree, dataset)
        return compiled

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def patch(
        self,
        tree: MinSigTree,
        dataset: TraceDataset,
        max_staleness: float = 0.25,
    ) -> Optional["ColumnarTree"]:
        """A fresh compiled tree spliced from these (stale) arrays.

        Consults the tree's and dataset's touch journals for the entities
        mutated since :meth:`stamp`, re-flattens the node structure (cheap:
        pointer walking only), recomputes membership rows for the touched
        entities alone, and splices everything else from the existing
        arrays -- translating cell ids through a vectorised remapping when
        the interned tables shifted.  The result is **byte-identical** to
        ``ColumnarTree.compile(tree, dataset)`` at a cost proportional to
        the delta, not the dataset.

        Returns ``None`` -- the caller falls back to a full recompile --
        when the patch cannot be both cheap and exact:

        * the arrays were stamped against a different tree/dataset object;
        * a journal cannot answer (its floor moved past our stamp, e.g.
          after ``rebuild()``/``compact()`` -- the designated compaction
          path -- or a journal overflow);
        * more than ``max_staleness`` of the population was touched (the
          staleness ratio: beyond it a full recompile is cheaper anyway);
        * full group-level signatures are stored (the ablation path stays
          on the full recompile).
        """
        if self._tree_ref is not tree or self._dataset_ref is not dataset:
            return None
        if self.matches(tree, dataset):
            return self
        if tree.store_full_signatures or self.node_full_signatures is not None:
            return None
        touched_tree = tree.touched_entities_since(self._tree_mutation)
        touched_data = dataset.touched_entities_since(self._dataset_mutation)
        if touched_tree is None or touched_data is None:
            return None
        touched = touched_tree | touched_data
        population = max(len(self.entity_order), 1)
        if len(touched) > max_staleness * population:
            return None

        _nodes, structure, entity_order = self._flatten_structure(tree)
        num_levels = self.num_levels
        old_position = self.entity_slot
        new_present = set(entity_order)
        # Journal sanity: every appearance/disappearance must be accounted
        # for, otherwise the splice below would silently reuse wrong rows.
        if not (new_present.symmetric_difference(old_position)) <= touched:
            return None

        # Reference counts of every interned cell across current rows:
        # derived (one bincount), never stored, so patched trees carry no
        # extra state and snapshots are unaffected.
        counts = np.bincount(self.member_indices, minlength=self.num_cells)
        indptr = self.member_indptr
        drop_segments = [
            self.member_indices[indptr[old_position[e] * num_levels] : indptr[(old_position[e] + 1) * num_levels]]
            for e in touched
            if e in old_position
        ]
        if drop_segments:
            np.subtract.at(counts, np.concatenate(drop_segments), 1)

        # Fresh rows for the touched entities still present, from their own
        # (small) cell table, counting their cells back in; table cells
        # absent from the old tables are additions.
        fresh_entities = [entity for entity in entity_order if entity in touched]
        fresh = dataset.cell_table(fresh_entities)
        # Row source of every entity: old slots first, fresh-table slots after.
        source_slot = dict(old_position)
        for slot, entity in enumerate(fresh_entities, start=len(old_position)):
            source_slot[entity] = slot
        fresh_codes = fresh.times * len(self.units) + fresh.unit_codes
        #: Old combined id of every fresh-table cell (-1 = addition).
        fresh_old = self.cell_ids(fresh_codes, fresh.level_offsets)
        known = fresh_old >= 0
        counts[fresh_old[known]] += np.bincount(fresh.indices, minlength=fresh.num_cells)[known]
        if (counts < 0).any():
            return None  # journal under-reported: stay exact, recompile

        # New per-level code runs: survivors (old sorted order, minus the
        # cells whose count hit zero) merged with the sorted additions.
        # ``translate`` maps old combined ids to new ones (-1 = dead cell);
        # ``fresh_new`` maps every fresh-table cell to its new combined id.
        merged_levels: List[np.ndarray] = []
        level_cell_offset = np.zeros(num_levels + 1, dtype=np.int64)
        translate = np.full(self.num_cells, -1, dtype=np.int64)
        fresh_new = np.full(fresh.num_cells, -1, dtype=np.int64)
        for level_index in range(num_levels):
            start, stop = self.level_cell_offset[level_index : level_index + 2]
            fresh_start, fresh_stop = fresh.level_offsets[level_index : level_index + 2]
            alive = start + np.flatnonzero(counts[start:stop] > 0)
            added = fresh_start + np.flatnonzero(~known[fresh_start:fresh_stop])
            # Two sorted runs, which the stable sort merges in linear time.
            merged = np.sort(
                np.concatenate((self.cell_codes[alive], fresh_codes[added])), kind="stable"
            )
            base = level_cell_offset[level_index]
            translate[alive] = base + np.searchsorted(merged, self.cell_codes[alive])
            fresh_new[added] = base + np.searchsorted(merged, fresh_codes[added])
            merged_levels.append(merged)
            level_cell_offset[level_index + 1] = base + merged.size
        fresh_new[known] = translate[fresh_old[known]]

        # Splice the CSR in the new entity order with one gather: untouched
        # entities reuse their old (translated) rows, touched entities take
        # their rows of the fresh table, appended behind the old ones.
        source = np.array([source_slot[entity] for entity in entity_order], dtype=np.int64)
        member_indptr, member_indices = _gather_rows(
            np.concatenate((indptr[:-1], fresh.indptr + self.member_indices.size)),
            np.concatenate((translate[self.member_indices], fresh_new[fresh.indices])),
            source,
            num_levels,
        )

        patched = type(self)(
            num_levels=num_levels,
            num_hashes=self.num_hashes,
            entity_order=tuple(entity_order),
            units=self.units,
            cell_codes=np.concatenate(merged_levels),
            level_cell_offset=level_cell_offset,
            member_indptr=member_indptr,
            member_indices=member_indices,
            node_full_signatures=None,
            **structure,
        )
        patched.stamp(tree, dataset)
        return patched

    def stamp(
        self,
        tree: MinSigTree,
        dataset: TraceDataset,
        mutation_counts: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Record the tree/dataset state these arrays are valid for.

        That is their current state, or the ``(tree, dataset)`` mutation
        counts the arrays were compiled at when those have since moved:
        :meth:`patch` then splices in what changed after them.
        """
        self._tree_ref = tree
        self._dataset_ref = dataset
        self._tree_mutation, self._dataset_mutation = (
            (tree.mutation_count, dataset.mutation_count)
            if mutation_counts is None
            else mutation_counts
        )

    def matches(self, tree: MinSigTree, dataset: TraceDataset) -> bool:
        """Whether the compiled arrays are still valid for this tree/dataset."""
        return (
            self._tree_ref is tree
            and self._tree_mutation == tree.mutation_count
            and self._dataset_ref is dataset
            and self._dataset_mutation == dataset.mutation_count
        )

    @property
    def num_nodes(self) -> int:
        """Number of flattened nodes, including the virtual root."""
        return int(self.node_level.size)

    @property
    def num_entities(self) -> int:
        """Number of entities in the frozen leaf order."""
        return len(self.entity_order)

    @property
    def num_cells(self) -> int:
        """Total interned dataset cells across all levels."""
        return int(self.level_cell_offset[-1])

    def cell_ids(self, codes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Combined ids of cells ``codes`` (-1 = not interned), one search per level.

        ``codes[bounds[i]:bounds[i + 1]]`` are level-``i + 1`` cell codes.
        """
        ids = np.full(codes.size, -1, dtype=np.int64)
        for level_index in range(self.num_levels):
            start, stop = self.level_cell_offset[level_index : level_index + 2]
            span = slice(bounds[level_index], bounds[level_index + 1])
            at = start + np.searchsorted(self.cell_codes[start:stop], codes[span])
            found = at < stop
            found[found] = self.cell_codes[at[found]] == codes[span][found]
            ids[span] = np.where(found, at, -1)
        return ids

    # ------------------------------------------------------------------
    # Snapshot codec
    # ------------------------------------------------------------------
    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The compiled arrays as plain ndarrays (the snapshot payload).

        Cell tables are exported per level as parallel ``(time, unit id)``
        arrays (each level's unit column as wide as its longest id);
        :meth:`import_arrays` re-encodes them, so a snapshot load skips the
        whole membership recompilation.
        """
        arrays: Dict[str, np.ndarray] = {
            "node_level": self.node_level,
            "node_parent": self.node_parent,
            "node_routing_index": self.node_routing_index,
            "node_routing_value": self.node_routing_value,
            "child_start": self.child_start,
            "child_end": self.child_end,
            "entity_start": self.entity_start,
            "entity_end": self.entity_end,
            "entity_order": np.array(self.entity_order, dtype=np.str_),
            "member_indptr": self.member_indptr,
            "member_indices": self.member_indices,
        }
        if self.node_full_signatures is not None:
            arrays["node_full_signatures"] = self.node_full_signatures
        unit_ids = np.array(self.units, dtype=np.str_)
        id_length = np.fromiter(map(len, self.units), dtype=np.int64, count=len(self.units))
        for level_index in range(self.num_levels):
            start, stop = self.level_cell_offset[level_index : level_index + 2]
            times, codes = np.divmod(self.cell_codes[start:stop], len(self.units))
            arrays[f"cell_times_{level_index}"] = times
            arrays[f"cell_units_{level_index}"] = unit_ids[codes].astype(
                f"<U{id_length[codes].max(initial=1)}"
            )
        return arrays

    @classmethod
    def import_arrays(
        cls, arrays: Dict[str, np.ndarray], hierarchy: SpatialHierarchy, num_hashes: int
    ) -> "ColumnarTree":
        """Rebuild a compiled tree from :meth:`export_arrays` output.

        Performs structural validation (root at index 0, spans within
        range, CSR shape consistency, every level's cells units of that
        level in strictly ascending order) and raises ``ValueError`` /
        ``KeyError`` on malformed input; callers fall back to a fresh
        :meth:`compile`.
        """
        num_levels = hierarchy.num_levels
        node_level = np.asarray(arrays["node_level"], dtype=np.int32)
        if node_level.size == 0 or node_level[0] != 0:
            raise ValueError("malformed columnar arrays: missing virtual root")
        node_parent = np.asarray(arrays["node_parent"], dtype=np.int64)
        if (
            node_parent.size != node_level.size
            or node_parent[0] != -1
            or (node_parent[1:] < 0).any()
            or (node_parent[1:] >= np.arange(1, node_level.size)).any()
        ):
            raise ValueError("malformed columnar arrays: bad parent links")
        # The bound pass walks levels in BFS-contiguous order and looks
        # parents up in the previous level -- both must hold structurally.
        if (np.diff(node_level) < 0).any() or (
            node_level.size > 1
            and (node_level[1:] != node_level[node_parent[1:]] + 1).any()
        ):
            raise ValueError("malformed columnar arrays: non-BFS level layout")
        entity_order = tuple(str(name) for name in arrays["entity_order"])
        units = hierarchy.coded_units()
        code_of = hierarchy.unit_codes()
        level_codes: List[np.ndarray] = []
        for level_index in range(num_levels):
            times = np.asarray(arrays[f"cell_times_{level_index}"], dtype=np.int64)
            names = np.asarray(arrays[f"cell_units_{level_index}"]).tolist()
            level_units = set(hierarchy.units_at_level(level_index + 1))
            if times.size != len(names) or not level_units.issuperset(names):
                raise ValueError("malformed columnar arrays: cell table mismatch")
            codes = times * len(units) + np.fromiter(map(code_of.get, names), np.int64, len(names))
            if (np.diff(codes) <= 0).any():
                raise ValueError("malformed columnar arrays: cells not strictly sorted")
            level_codes.append(codes)
        level_cell_offset = np.cumsum([0] + [codes.size for codes in level_codes])
        total_cells = int(level_cell_offset[-1])
        member_indptr = np.asarray(arrays["member_indptr"], dtype=np.int64)
        member_indices = np.asarray(arrays["member_indices"], dtype=np.int64)
        if member_indptr.size != len(entity_order) * num_levels + 1:
            raise ValueError("malformed columnar arrays: CSR indptr length mismatch")
        if member_indptr[-1] != member_indices.size or (np.diff(member_indptr) < 0).any():
            raise ValueError("malformed columnar arrays: CSR shape mismatch")
        if member_indices.size and (
            member_indices.min() < 0 or member_indices.max() >= total_cells
        ):
            raise ValueError("malformed columnar arrays: cell id out of range")
        child_start = np.asarray(arrays["child_start"], dtype=np.int64)
        child_end = np.asarray(arrays["child_end"], dtype=np.int64)
        entity_start = np.asarray(arrays["entity_start"], dtype=np.int64)
        entity_end = np.asarray(arrays["entity_end"], dtype=np.int64)
        count = node_level.size
        for span_start, span_end, limit in (
            (child_start, child_end, count),
            (entity_start, entity_end, len(entity_order)),
        ):
            if span_start.size != count or span_end.size != count:
                raise ValueError("malformed columnar arrays: span length mismatch")
            if ((span_start < 0) | (span_end < span_start) | (span_end > limit)).any():
                raise ValueError("malformed columnar arrays: span out of range")
        full = arrays.get("node_full_signatures")
        return cls(
            num_levels=num_levels,
            num_hashes=num_hashes,
            node_level=node_level,
            node_parent=node_parent,
            node_routing_index=np.asarray(arrays["node_routing_index"], dtype=np.int32),
            node_routing_value=np.asarray(arrays["node_routing_value"], dtype=np.int64),
            child_start=child_start,
            child_end=child_end,
            entity_start=entity_start,
            entity_end=entity_end,
            entity_order=entity_order,
            units=units,
            cell_codes=np.concatenate(level_codes),
            level_cell_offset=level_cell_offset,
            member_indptr=member_indptr,
            member_indices=member_indices,
            node_full_signatures=None if full is None else np.asarray(full, dtype=np.int64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarTree(nodes={self.num_nodes}, entities={self.num_entities}, "
            f"levels={self.num_levels}, num_hashes={self.num_hashes})"
        )


class ColumnarQueryContext:
    """Per-query arrays of one columnar search.

    Construction runs the whole vectorised bound pass: every node's direct
    pruning row, the cumulative root-to-node masks (one OR per tree level),
    per-level survivor counts, the Theorem 4 upper bound of **every tree
    node**, and from it the bound each node carries in Algorithm 2's queue
    -- :attr:`path_bounds`.  :meth:`pop_order` ranks every node the way the
    walk's queue pops them, and :meth:`entity_scores` scores every entity in
    one pass; ``TopKSearcher.search`` replays the walk from those arrays.

    Raises :class:`~repro.core.pruning.InvalidQuerySequence` for hand-built
    query sequences that violate sp-index consistency.
    """

    def __init__(
        self,
        compiled: ColumnarTree,
        query: QueryHashes,
        query_sequence: CellSequence,
        measure: AssociationMeasure,
        use_full_signatures: bool,
    ) -> None:
        self.compiled = compiled
        self.query = query
        self.measure = measure
        self.use_full_signatures = bool(
            use_full_signatures and compiled.node_full_signatures is not None
        )
        num_levels = compiled.num_levels
        sizes = [len(level) for level in query.cells]
        self.query_sizes = np.asarray(sizes, dtype=np.int64)
        self.query_empty = query_sequence.is_empty()
        #: Concatenated-axis offset of each level's query cells (length m+1).
        self.level_offsets = np.zeros(num_levels + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.level_offsets[1:])
        self.total_cells = int(self.level_offsets[-1])
        if self.total_cells and min(sizes) == 0:
            # Engine-built sequences are all-or-nothing: a non-empty base
            # set implies non-empty sets at every coarser level.
            raise InvalidQuerySequence(
                "query sequence has an empty level alongside non-empty ones"
            )
        #: (total_q, n_h) hash matrix over the concatenated query cells.
        self.matrix = (
            np.concatenate(query.matrices, axis=0)
            if self.total_cells
            else np.empty((0, query.matrices[0].shape[1] if query.matrices else 0), dtype=np.int64)
        )
        # Theorem 4 bound scores only depend on per-level survivor counts at
        # fixed query sizes; the measure turns that into lookup tables once
        # per query (see AssociationMeasure.bound_batch_kernel).
        self._bound_kernel = measure.bound_batch_kernel(self.query_sizes)

        #: Bound of every node as Algorithm 2 queues it: ``1.0`` at the
        #: root, else ``min(parent's path bound, own Theorem 4 bound)``.
        self.path_bounds = self._compute_path_bounds()

    # ------------------------------------------------------------------
    def _compute_path_bounds(self) -> np.ndarray:
        """Path bounds of every tree node in one vectorised pass.

        Computes each node's direct pruning row (Theorem 2 on its routing
        value -- or its full signature under the ablation), accumulates them
        into cumulative root-to-node masks (Theorem 3 is a running OR), then
        counts per-level survivors and scores each node batch through the
        measure's bound tables.  Every value is bit-identical to the
        reference path's ``min(bound, upper_bound(state, ...))`` for the
        same node.

        The pass walks the tree one level at a time (the BFS layout keeps
        levels contiguous, and a node's parent sits in the previous level),
        so the transient mask footprint is bounded by the two widest
        adjacent levels -- not the whole tree -- however large the index.
        """
        compiled = self.compiled
        num_nodes = compiled.num_nodes
        num_levels = compiled.num_levels
        # The walk pushes the virtual root with the fixed bound 1.0.
        bounds = np.zeros(num_nodes, dtype=np.float64)
        bounds[0] = 1.0
        if self.total_cells == 0:
            return bounds
        if not self.use_full_signatures:
            matrix_t = np.ascontiguousarray(self.matrix.T)

        node_level = compiled.node_level
        boundaries = np.searchsorted(node_level, np.arange(num_levels + 2))
        previous_masks = np.zeros((1, self.total_cells), dtype=bool)
        previous_start = 0
        for level in range(1, num_levels + 1):
            start, stop = int(boundaries[level]), int(boundaries[level + 1])
            if start >= stop:
                break  # levels are contiguous: nothing deeper exists either
            # Direct pruning rows of this level: one gather + compare.
            if self.use_full_signatures:
                masks = np.empty((stop - start, self.total_cells), dtype=bool)
                chunk = max(
                    1, (1 << 24) // max(1, self.total_cells * compiled.num_hashes)
                )
                for chunk_start in range(start, stop, chunk):
                    chunk_stop = min(stop, chunk_start + chunk)
                    masks[chunk_start - start : chunk_stop - start] = (
                        self.matrix[None, :, :]
                        < compiled.node_full_signatures[chunk_start:chunk_stop, None, :]
                    ).any(axis=2)
            else:
                masks = matrix_t[compiled.node_routing_index[start:stop]] < (
                    compiled.node_routing_value[start:stop, None]
                )
            if level > 1:
                # A node at tree level i only constrains sp-index levels
                # >= i; coarser cells inherit the ancestors' masks alone.
                masks[:, : self.level_offsets[level - 1]] = False
            # Theorem 3: accumulate the parents' cumulative masks.
            masks |= previous_masks[compiled.node_parent[start:stop] - previous_start]

            # Theorem 4 (per level): a query cell survives at its level
            # unless some node on the path pruned it there.
            survivors = np.add.reduceat(~masks, self.level_offsets[:-1], axis=1)

            raw = self._bound_kernel(survivors)
            level_bounds = np.minimum(np.maximum(raw, 0.0), 1.0)
            # All-surviving-zero nodes bound to exactly 0.0 without
            # consulting the measure, as in the reference upper_bound().
            level_bounds[~survivors.any(axis=1)] = 0.0
            bounds[start:stop] = np.minimum(level_bounds, bounds[compiled.node_parent[start:stop]])
            previous_masks = masks
            previous_start = start
        return bounds

    def pop_order(self) -> np.ndarray:
        """Every node id, in the order Algorithm 2's queue would pop it.

        The queue pops the largest path bound first and breaks ties by push
        order (the parent's pop rank, then the child's position): unrolled,
        a ``lexsort`` on the path bounds of the node, its parent, ... up to
        the root, whose 1.0 tops every bound and repeats -- so of two tied
        chains the shallower node, the smaller BFS id, comes first.
        """
        ancestor = np.arange(self.compiled.num_nodes)
        parent = np.maximum(self.compiled.node_parent, 0)
        keys = []
        for _depth in range(self.compiled.num_levels):
            keys.append(-self.path_bounds[ancestor])
            ancestor = parent[ancestor]
        return np.lexsort(keys[::-1])

    # ------------------------------------------------------------------
    def entity_scores(self) -> np.ndarray:
        """Exact association degrees of *every* indexed entity, vectorised.

        One membership-lookup gather over the combined CSR, one ``reduceat``
        for the per-(entity, level) overlap counts, and one batched measure
        evaluation -- bit-identical per entity to
        ``measure.score(dataset.cell_sequence(entity), query_sequence)``
        (including the empty-sequence guard and the [0, 1] clamp).  Indexed
        by the compiled frozen entity order.
        """
        compiled = self.compiled
        n_entities = compiled.num_entities
        num_levels = compiled.num_levels
        if n_entities == 0 or self.query_empty:
            return np.zeros(n_entities, dtype=np.float64)

        # Membership lookup over the combined cell-id space, true at the
        # query's cells.
        lookup = np.zeros(compiled.num_cells, dtype=bool)
        radix, unit_code = len(compiled.units), compiled.unit_code
        codes = np.fromiter(
            (cell.time * radix + unit_code[cell.unit] for cells in self.query.cells for cell in cells),
            dtype=np.int64,
            count=self.total_cells,
        )
        ids = compiled.cell_ids(codes, self.level_offsets)
        lookup[ids[ids >= 0]] = True

        sizes_a = compiled.entity_level_sizes
        indptr = compiled.member_indptr
        if compiled.member_indices.size:
            # Trailing sentinel keeps reduceat in-bounds for empty trailing
            # segments; empty segments are zeroed via the size mask below.
            hits = np.zeros(compiled.member_indices.size + 1, dtype=np.int64)
            hits[:-1] = lookup[compiled.member_indices]
            shared = np.add.reduceat(hits, indptr[:-1]).reshape(n_entities, num_levels)
            shared[sizes_a == 0] = 0
        else:
            shared = np.zeros((n_entities, num_levels), dtype=np.int64)
        sizes_b = np.broadcast_to(self.query_sizes, (n_entities, num_levels))
        raw = self.measure.score_levels_batch(sizes_a, sizes_b, shared)
        scores = np.minimum(np.maximum(raw, 0.0), 1.0)
        scores[sizes_a[:, num_levels - 1] == 0] = 0.0
        return scores
