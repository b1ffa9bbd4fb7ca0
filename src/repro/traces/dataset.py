"""The trace dataset: digital traces organised by entity.

:class:`TraceDataset` is the substrate every other component works on.  It
stores presence instances per entity, lazily materialises and caches each
entity's ST-cell set sequence (Section 4.1), and maintains per-level inverted
indexes from ST-cells to the entities present in them -- used by the
distribution analyses and the AjPI helpers.  Traces restored from a
snapshot stay in its presence columns until a read needs their records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.traces.events import (
    CellSequence,
    CellTable,
    PresenceInstance,
    STCell,
    cell_table_from_traces,
    cells_from_presences,
)
from repro.traces.spatial import SpatialHierarchy

__all__ = ["TraceDataset"]


class _RestoredRows:
    """One restored entity's trace, still held as a row range of presence columns.

    Entries of this kind come from :meth:`TraceDataset.restore_columns` and
    stand in for the entity's ``PresenceInstance`` list until a read needs
    the records; :meth:`TraceDataset._records` then builds the list and
    swaps it in.  ``columns`` is ``(base unit names, unit indexes, starts,
    ends)``, shared by every entry of one restore.  ``min_end`` lets expiry
    skip entities it cannot touch without building them.  Immutable, so
    datasets may share one.
    """

    __slots__ = ("columns", "lo", "hi", "min_end")

    def __init__(self, columns: tuple, lo: int, hi: int, min_end: int) -> None:
        self.columns = columns
        self.lo = lo
        self.hi = hi
        self.min_end = min_end

    def __len__(self) -> int:
        return self.hi - self.lo

    def build(self, entity: str) -> List[PresenceInstance]:
        names, units, starts, ends = self.columns
        span = slice(self.lo, self.hi)
        return [
            PresenceInstance(entity=entity, unit=names[unit], start=start, end=end)
            for unit, start, end in zip(
                units[span].tolist(), starts[span].tolist(), ends[span].tolist()
            )
        ]


#: A trace entry: the built records, or a restored row range not built yet.
_Entry = Union[List[PresenceInstance], _RestoredRows]


class TraceDataset:
    """A collection of digital traces over one sp-index.

    Parameters
    ----------
    hierarchy:
        The sp-index locating every presence instance.
    horizon:
        Optional number of base temporal units covered by the dataset.  When
        omitted it is derived from the data (the largest ``end`` seen).  The
        horizon fixes the hash range ``|S| = |L| * horizon`` used by the
        signature layer, so appending data beyond a fixed horizon is allowed
        but keeps the original hash range.
    """

    def __init__(self, hierarchy: SpatialHierarchy, horizon: Optional[int] = None) -> None:
        hierarchy.validate()
        self._hierarchy = hierarchy
        self._explicit_horizon = horizon
        self._max_end = 0
        # entity -> its records; entries restored from columns stay
        # _RestoredRows until _records builds them.
        self._presences: Dict[str, _Entry] = {}
        self._sequence_cache: Dict[str, CellSequence] = {}
        # level -> cell -> set of entities, built lazily per level.
        self._cell_index: Dict[int, Dict[STCell, Set[str]]] = {}
        #: Monotone counter bumped by every mutation (adds, removals,
        #: expiry, trace replacement).  Derived structures that freeze a
        #: view of the dataset -- the columnar query kernel's per-level
        #: cell-membership arrays -- record the value they were compiled at
        #: and recompile lazily when it moved.
        self.mutation_count: int = 0
        # Touch journal mirroring MinSigTree's: entity -> mutation_count at
        # its last mutation, with a floor below which the journal cannot
        # answer.  The columnar kernel's incremental patch unions this with
        # the tree's journal to find the rows it must recompute.
        self._touched: Dict[str, int] = {}
        self._touched_floor: int = 0

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add_presence(self, presence: PresenceInstance) -> None:
        """Append one presence instance to its entity's digital trace."""
        if presence.unit not in self._hierarchy:
            raise KeyError(f"unknown spatial unit {presence.unit!r}")
        if self._hierarchy.level_of(presence.unit) != self._hierarchy.num_levels:
            raise ValueError(
                f"presence instances must reference base spatial units, got {presence.unit!r}"
            )
        if presence.entity in self._presences:
            self._records(presence.entity).append(presence)
        else:
            self._presences[presence.entity] = [presence]
        self._max_end = max(self._max_end, presence.end)
        self._invalidate(presence.entity)

    def add_record(self, entity: str, unit: str, time: int, duration: int = 1) -> None:
        """Convenience wrapper: add a presence of ``duration`` units at ``time``."""
        self.add_presence(PresenceInstance(entity=entity, unit=unit, start=time, end=time + duration))

    def extend(self, presences: Iterable[PresenceInstance]) -> None:
        """Append many presence instances."""
        for presence in presences:
            self.add_presence(presence)

    def remove_entity(self, entity: str) -> None:
        """Drop an entity and its whole digital trace."""
        if entity not in self._presences:
            raise KeyError(f"unknown entity {entity!r}")
        del self._presences[entity]
        self._invalidate(entity)

    def expire_before(self, cutoff: int) -> Dict[str, int]:
        """Drop every presence instance whose period ends at or before ``cutoff``.

        This is the sliding-window retraction primitive used by
        :mod:`repro.streaming`: a window of length ``W`` over a stream whose
        newest event ends at ``watermark`` keeps exactly the records with
        ``end > watermark - W``.  Entities whose whole trace expires are
        removed outright (they no longer exist in the dataset).

        The horizon never shrinks: an explicit horizon is fixed at
        construction, and a derived one keeps the largest ``end`` ever seen,
        so hash ranges -- and therefore signatures of surviving records --
        are unaffected by expiry.

        Returns
        -------
        Dict[str, int]
            Number of presence instances removed per affected entity (only
            entities that lost at least one record appear).  Check
            ``entity in dataset`` afterwards to tell partial from full
            expiry.
        """
        removed: Dict[str, int] = {}
        for entity, entry in list(self._presences.items()):
            if isinstance(entry, _RestoredRows) and entry.min_end > cutoff:
                continue  # nothing of it expires: leave it unbuilt
            trace = self._records(entity)
            surviving = [presence for presence in trace if presence.end > cutoff]
            dropped = len(trace) - len(surviving)
            if not dropped:
                continue
            removed[entity] = dropped
            if surviving:
                self._presences[entity] = surviving
            else:
                del self._presences[entity]
            self._invalidate(entity)
        return removed

    def replace_trace(self, entity: str, presences: Iterable[PresenceInstance]) -> None:
        """Replace an entity's digital trace wholesale (used by update tests)."""
        materialised = list(presences)
        for presence in materialised:
            if presence.entity != entity:
                raise ValueError(
                    f"presence for {presence.entity!r} passed while replacing trace of {entity!r}"
                )
        self._presences[entity] = []
        self._invalidate(entity)
        self.extend(materialised)

    def restore_trace(self, entity: str, presences: Iterable[PresenceInstance]) -> None:
        """Trusted bulk append of one entity's whole trace (the snapshot path).

        Skips the per-record hierarchy lookups of :meth:`add_presence` --
        the records were validated when they were first added -- which makes
        cold-starting a large dataset from a snapshot a straight list build.
        The horizon and caches are maintained exactly as for normal appends.

        Raises
        ------
        ValueError
            If the entity already has a trace (restore is load-time only) or
            a record belongs to a different entity.
        """
        if entity in self._presences:
            raise ValueError(f"entity {entity!r} already has a trace; restore is load-time only")
        trace = list(presences)
        for presence in trace:
            if presence.entity != entity:
                raise ValueError(
                    f"presence for {presence.entity!r} passed while restoring trace of {entity!r}"
                )
        self._presences[entity] = trace
        if trace:
            self._max_end = max(self._max_end, max(presence.end for presence in trace))
        self._invalidate(entity)

    def restore_columns(
        self,
        entities: Sequence[str],
        offsets: np.ndarray,
        units: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Trusted lazy restore of many whole traces from presence columns.

        Entity ``entities[i]`` owns rows ``offsets[i]:offsets[i + 1]``;
        ``units`` index :attr:`SpatialHierarchy.base_units`.  No record is
        built here: each entity's ``PresenceInstance`` list is built on the
        first read that needs it (:meth:`trace`, :meth:`cell_sequence`,
        :meth:`cell_table`, or a mutation of that entity), equal to what
        :meth:`restore_trace` would have stored.  Counts, order, horizon,
        ``mutation_count`` and the touch journal advance as for one
        :meth:`restore_trace` per entity.  The caller has validated the
        columns (the snapshot loader does).

        Raises
        ------
        ValueError
            If an entity already has a trace or is named twice (restore is
            load-time only).
        """
        self._check_restorable(entities)
        bounds = offsets.tolist()
        columns = (self._hierarchy.base_units, units, starts, ends)
        nonempty = offsets[1:] > offsets[:-1]
        min_ends = np.zeros(len(entities), dtype=np.int64)
        if ends.size:
            min_ends[nonempty] = np.minimum.reduceat(ends, offsets[:-1][nonempty])
            self._max_end = max(self._max_end, int(ends.max()))
        for index, (entity, min_end) in enumerate(zip(entities, min_ends.tolist())):
            lo, hi = bounds[index], bounds[index + 1]
            self._presences[entity] = _RestoredRows(columns, lo, hi, min_end) if hi > lo else []
        self._invalidate(*entities)

    def restore_from(self, other: "TraceDataset") -> None:
        """Trusted bulk append of every trace of ``other`` (the sharded load path).

        ``other`` must be over the same hierarchy.  Unbuilt restored entries
        are shared rather than built; built traces are copied, as
        :meth:`restore_trace` copies.  The derived horizon grows to cover
        ``other``'s.

        Raises
        ------
        ValueError
            If an entity of ``other`` already has a trace here.
        """
        self._check_restorable(other._presences)
        for entity, entry in other._presences.items():
            self._presences[entity] = entry if isinstance(entry, _RestoredRows) else list(entry)
        self._invalidate(*other._presences)
        self._max_end = max(self._max_end, other._max_end)

    def _check_restorable(self, entities: Iterable[str]) -> None:
        seen: Set[str] = set()
        for entity in entities:
            if entity in self._presences or entity in seen:
                raise ValueError(
                    f"entity {entity!r} already has a trace; restore is load-time only"
                )
            seen.add(entity)

    def _records(self, entity: str) -> List[PresenceInstance]:
        """The record list of ``entity``, built in place if still restored rows.

        The one read of a trace's records; raises ``KeyError`` for an
        unknown entity.
        """
        entry = self._presences[entity]
        if isinstance(entry, _RestoredRows):
            entry = self._presences[entity] = entry.build(entity)
        return entry

    def _invalidate(self, *entities: str) -> None:
        """Record one mutation of each of ``entities``, in order."""
        for entity in entities:
            self.mutation_count += 1
            self._touched[entity] = self.mutation_count
            self._sequence_cache.pop(entity, None)
        # Overflow valve (see MinSigTree._record_touch): reset rather than
        # scan an unbounded journal; consumers recompile once, always safe.
        if len(self._touched) > max(1024, 4 * len(self._presences)):
            self._touched.clear()
            self._touched_floor = self.mutation_count
        # The inverted indexes are rebuilt from scratch on next use; updates
        # are rare compared to reads in every workload we model.
        self._cell_index.clear()

    def touched_entities_since(self, mutation_count: int) -> Optional[Set[str]]:
        """Entities mutated after ``mutation_count``, or ``None``.

        ``None`` means the touch journal no longer reaches back that far
        (an overflow reset raised its floor); callers must then treat every
        entity as potentially changed.
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
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> SpatialHierarchy:
        """The sp-index the dataset is defined over."""
        return self._hierarchy

    @property
    def explicit_horizon(self) -> Optional[int]:
        """The horizon passed at construction, or ``None`` when derived."""
        return self._explicit_horizon

    @property
    def horizon(self) -> int:
        """Number of base temporal units covered (explicit or derived)."""
        if self._explicit_horizon is not None:
            return self._explicit_horizon
        return self._max_end

    @property
    def num_levels(self) -> int:
        """Depth ``m`` of the sp-index."""
        return self._hierarchy.num_levels

    @property
    def entities(self) -> Tuple[str, ...]:
        """All entity identifiers, in insertion order."""
        return tuple(self._presences)

    @property
    def num_entities(self) -> int:
        """Number of entities with at least one presence instance."""
        return len(self._presences)

    @property
    def num_presences(self) -> int:
        """Total number of presence instances across all entities."""
        return sum(len(trace) for trace in self._presences.values())

    @property
    def num_st_cells(self) -> int:
        """Size of the ST-cell universe ``|S| = |L| * horizon``."""
        return self._hierarchy.num_base_units * max(self.horizon, 1)

    def __contains__(self, entity: str) -> bool:
        return entity in self._presences

    def __len__(self) -> int:
        return len(self._presences)

    def __iter__(self) -> Iterator[str]:
        return iter(self._presences)

    def trace(self, entity: str) -> Tuple[PresenceInstance, ...]:
        """The digital trace (all presence instances) of ``entity``."""
        try:
            return tuple(self._records(entity))
        except KeyError:
            raise KeyError(f"unknown entity {entity!r}") from None

    def cell_sequence(self, entity: str) -> CellSequence:
        """The ST-cell set sequence of ``entity`` (cached)."""
        cached = self._sequence_cache.get(entity)
        if cached is not None:
            return cached
        sequence = cells_from_presences(self.trace(entity), self._hierarchy)
        self._sequence_cache[entity] = sequence
        return sequence

    def cell_table(self, entities: Optional[Iterable[str]] = None) -> CellTable:
        """The ST-cell set sequences of ``entities`` (default: all) as arrays.

        The bulk counterpart of :meth:`cell_sequence`, for consumers that
        read every selected entity at once (index build, columnar compile,
        flush-time re-signing); entity ``e`` of the table is the ``e``-th
        selected.  Built from the traces on every call: the per-entity
        sequence cache is neither read nor filled.
        """
        selected = self._presences if entities is None else entities
        return cell_table_from_traces([self.trace(entity) for entity in selected], self._hierarchy)

    def average_cells_per_entity(self) -> float:
        """Average base ST-cell count per entity (``C`` in the cost analysis)."""
        if not self._presences:
            return 0.0
        total = sum(len(self.cell_sequence(entity).base_cells) for entity in self._presences)
        return total / len(self._presences)

    # ------------------------------------------------------------------
    # Inverted cell index
    # ------------------------------------------------------------------
    def entities_at_cell(self, cell: STCell, level: Optional[int] = None) -> Set[str]:
        """Entities whose level-``level`` ST-cell set contains ``cell``.

        ``level`` defaults to the level of the cell's spatial unit.  The index
        for a level is built on first use and invalidated by any mutation.
        """
        if level is None:
            level = self._hierarchy.level_of(cell.unit)
        index = self._cell_index.get(level)
        if index is None:
            index = defaultdict(set)
            for entity in self._presences:
                for entity_cell in self.cell_sequence(entity).at_level(level):
                    index[entity_cell].add(entity)
            self._cell_index[level] = index
        return set(index.get(cell, set()))

    def describe(self) -> str:
        """A one-line summary useful in example scripts and logs."""
        return (
            f"TraceDataset(entities={self.num_entities}, presences={self.num_presences}, "
            f"base_units={self._hierarchy.num_base_units}, levels={self.num_levels}, "
            f"horizon={self.horizon})"
        )
