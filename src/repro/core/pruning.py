"""Pruned sets, partial pruned sets, and upper bounds (Sections 4.2.2 and 5.1).

Theorem 2 states that an entity whose level-``i`` signature has
``sig^i[u] > h_u(s)`` for some hash function ``u`` cannot be present in the
ST-cell ``s``.  Applied to a MinSigTree node's group-level signature, this
yields a set of query cells that *no* entity below the node can share with
the query -- the node's pruned set.  Removing those cells from the query and
scoring the query against the remainder (the *artificial entity* of
Theorem 4) gives an upper bound on the association degree of every entity in
the subtree.

The search keeps, per sp-index level, a boolean mask over the query's cells
at that level marking which cells have been pruned so far along the current
root-to-node path.  Theorem 3 (descendant pruned sets contain ancestor pruned
sets) is realised simply by OR-ing masks as the search descends.

Two pruning modes are supported:

* **partial** (the paper's default, Section 5.1): only the routing-index
  value of the node signature is used -- one comparison per query cell;
* **full** (ablation): the complete group-level signature is used, pruning a
  cell as soon as *any* hash position witnesses its absence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.hashing import HierarchicalHashFamily
from repro.core.minsigtree import MinSigTreeNode
from repro.measures.base import AssociationMeasure
from repro.traces.events import CellSequence, STCell

__all__ = ["InvalidQuerySequence", "QueryHashes", "PruningState", "upper_bound"]


class InvalidQuerySequence(ValueError):
    """A caller-supplied query sequence that violates sp-index consistency.

    Sequences the engine derives from a dataset are consistent by
    construction; this rejects hand-built or wire-decoded
    :class:`~repro.traces.events.CellSequence` objects whose level count
    differs from the index depth, whose base cells lack their ancestor
    cells at a coarser level, or whose coarse cells have no base
    descendant.  The message names the defect.
    """


@dataclass(frozen=True)
class QueryHashes:
    """Pre-hashed representation of the query entity's ST-cell set sequence.

    ``cells[l]`` lists the query's level-``l+1`` cells and ``matrices[l]`` is
    the corresponding ``(n_cells, n_h)`` hash matrix.  ``owners[l]`` maps
    each of the query's *base* cells to the position of its ancestor among
    the level-``l+1`` cells, which the ``"lift"`` bound of
    :func:`upper_bound` uses to rebuild the artificial entity's coarse sets
    from its surviving base cells.  All of it is computed once per query
    and shared by every bound evaluation.
    """

    cells: Tuple[Tuple[STCell, ...], ...]
    matrices: Tuple[np.ndarray, ...]
    #: For every level, an array of length ``|Q_m|`` giving, for each base
    #: query cell, the position of its ancestor cell within that level's list.
    owners: Tuple[np.ndarray, ...]

    @classmethod
    def from_sequence(
        cls,
        sequence: CellSequence,
        hash_family: HierarchicalHashFamily,
    ) -> "QueryHashes":
        """Hash every cell of the query sequence at every level.

        Raises :class:`InvalidQuerySequence` when the sequence's level count
        differs from the sp-index depth, a base cell's ancestor cell is
        missing from a coarser level, or a coarse cell has no base cell
        below it.
        """
        hierarchy = hash_family.hierarchy
        num_levels = sequence.num_levels
        if num_levels != hierarchy.num_levels:
            raise InvalidQuerySequence(
                f"query sequence has {num_levels} levels but the index has "
                f"{hierarchy.num_levels}"
            )
        cells: List[Tuple[STCell, ...]] = []
        matrices: List[np.ndarray] = []
        for level_cells in sequence.levels:
            ordered = tuple(sorted(level_cells))
            cells.append(ordered)
            matrices.append(hash_family.hash_matrix(ordered))

        # Map every base query cell to the position of its ancestor cell at
        # each level; every coarse cell must own at least one base cell.
        base_cells = cells[-1]
        owners: List[np.ndarray] = []
        for level_index in range(num_levels):
            level = level_index + 1
            positions = {cell: position for position, cell in enumerate(cells[level_index])}
            owner = np.empty(len(base_cells), dtype=np.intp)
            for base_index, base_cell in enumerate(base_cells):
                if level == num_levels:
                    owner[base_index] = base_index
                else:
                    ancestor_unit = hierarchy.ancestor_at_level(base_cell.unit, level)
                    ancestor = STCell(base_cell.time, ancestor_unit)
                    try:
                        owner[base_index] = positions[ancestor]
                    except KeyError:
                        raise InvalidQuerySequence(
                            f"base cell {base_cell} has no ancestor cell "
                            f"{ancestor} at level {level} of the query sequence"
                        ) from None
            # Every level cell must own a base cell; bincount counts owners
            # without np.unique, whose first call imports numpy.ma.
            level_size = len(cells[level_index])
            if base_cells and np.count_nonzero(
                np.bincount(owner, minlength=level_size)
            ) != level_size:
                raise InvalidQuerySequence(
                    f"a level-{level} query cell has no base descendant in the query"
                )
            owners.append(owner)
        return cls(cells=tuple(cells), matrices=tuple(matrices), owners=tuple(owners))

    @property
    def num_levels(self) -> int:
        """Depth ``m`` of the underlying sp-index."""
        return len(self.cells)

    def level_sizes(self) -> Tuple[int, ...]:
        """Number of query cells per level (``|Q_l|``)."""
        return tuple(len(level) for level in self.cells)


@dataclass(frozen=True)
class PruningState:
    """Per-level masks over the query's cells pruned along a search path.

    Immutable: :meth:`refine` returns a new state, so sibling branches of the
    search share their ancestors' masks without interference.
    """

    masks: Tuple[np.ndarray, ...]

    @classmethod
    def initial(cls, query: QueryHashes) -> "PruningState":
        """The empty state at the MinSigTree root (nothing pruned yet)."""
        return cls(masks=tuple(np.zeros(len(level), dtype=bool) for level in query.cells))

    def refine(
        self,
        node: MinSigTreeNode,
        query: QueryHashes,
        use_full_signature: bool = False,
    ) -> "PruningState":
        """Apply a node's signature constraint on top of the current state.

        A node at tree level ``i`` constrains the query's cells at every
        sp-index level ``l >= i`` (its signature is a lower bound of the
        members' level-``l`` signatures by Theorem 1): a cell whose hash at
        the witnessing position is *below* the stored signature value cannot
        be shared by any member entity (Theorem 2).
        """
        if node.is_root:
            return self
        new_masks: List[np.ndarray] = []
        for level_index, (mask, matrix) in enumerate(zip(self.masks, query.matrices)):
            level = level_index + 1
            if level < node.level or matrix.shape[0] == 0:
                new_masks.append(mask)
                continue
            if use_full_signature and node.full_signature is not None:
                pruned_here = (matrix < node.full_signature[None, :]).any(axis=1)
            else:
                pruned_here = matrix[:, node.routing_index] < node.routing_value
            new_masks.append(mask | pruned_here)
        return PruningState(masks=tuple(new_masks))

    def surviving_counts(self) -> Tuple[int, ...]:
        """Number of query cells per level *not* pruned yet (``|V_l|``)."""
        return tuple(int((~mask).sum()) for mask in self.masks)

    def pruned_counts(self) -> Tuple[int, ...]:
        """Number of query cells per level pruned so far."""
        return tuple(int(mask.sum()) for mask in self.masks)

    def lifted_surviving_counts(self, query: QueryHashes) -> Tuple[int, ...]:
        """Per-level sizes of the artificial entity built by *lifting* survivors.

        This is the literal Theorem 4 construction: the artificial entity's
        base cell set is the query's base cells minus the pruned set, and its
        coarser sets are derived from that base set through the sp-index (a
        coarse cell survives only if at least one of its base descendants
        survives).  Direct coarse-level prunings recorded in the state are
        applied on top.
        """
        base_surviving = ~self.masks[-1]
        counts: List[int] = []
        for level_index, (mask, owner) in enumerate(zip(self.masks, query.owners)):
            if level_index == len(self.masks) - 1:
                counts.append(int(base_surviving.sum()))
                continue
            if mask.size == 0:
                counts.append(0)
                continue
            # A coarse cell survives if it is not directly pruned and at least
            # one of its base descendants survives.
            reachable = np.zeros(mask.size, dtype=bool)
            if base_surviving.any():
                reachable[np.unique(owner[base_surviving])] = True
            counts.append(int((reachable & ~mask).sum()))
        return tuple(counts)

    def surviving_base_cells(self, query: QueryHashes) -> Tuple[STCell, ...]:
        """The query's base cells that survive pruning (the artificial entity)."""
        mask = self.masks[-1]
        return tuple(cell for cell, pruned in zip(query.cells[-1], mask) if not pruned)


def upper_bound(
    state: PruningState,
    query: QueryHashes,
    measure: AssociationMeasure,
    mode: str = "per_level",
) -> float:
    """Theorem 4 upper bound for a node given its accumulated pruning state.

    Two bound modes are supported:

    * ``"per_level"`` (default, the bound every engine searches with): every
      level keeps all query cells not explicitly pruned at that level, which
      is admissible for any measure satisfying the Section 3.2 properties;
    * ``"lift"`` (the paper's construction, kept for the bound-mode
      ablation and the reference walk): the artificial entity is the lift
      of the query's surviving *base* cells.  It is tighter, but *not* an
      upper bound: it under-estimates associations that exist only at
      coarse levels (two entities meeting in the same district but never
      in the same building), so a search pruning with it can miss answers.
    """
    query_sizes = query.level_sizes()
    if mode == "lift":
        survivors = state.lifted_surviving_counts(query)
    elif mode == "per_level":
        survivors = state.surviving_counts()
    else:
        raise ValueError(f"unknown bound mode {mode!r}; expected 'lift' or 'per_level'")
    overlaps = [
        (surviving, total, surviving)
        for surviving, total in zip(survivors, query_sizes)
    ]
    if all(surviving == 0 for surviving, _total, _shared in overlaps):
        return 0.0
    value = measure.score_levels(overlaps)
    # Clamp for safety against floating point drift; bounds must stay in [0, 1].
    return min(max(value, 0.0), 1.0)
