"""Presence instances, ST-cells, and ST-cell set sequences.

A *presence instance* records that an entity was present at a base spatial
unit for a continuous period (Definition 1).  Periods are half-open integer
intervals ``[start, end)`` expressed in base temporal units (e.g. hours).

An *ST-cell* is the combination of one base temporal unit and one spatial
unit; presence instances expand into the base-level ST-cells they cover, and
the per-level ST-cell sets of Section 4.1 are derived by replacing the base
unit with its ancestor at each level of the sp-index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import FrozenSet, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from repro.traces.spatial import SpatialHierarchy

__all__ = [
    "STCell",
    "PresenceInstance",
    "CellSequence",
    "CellTable",
    "cells_from_presences",
    "cell_table_from_traces",
]


class STCell(NamedTuple):
    """A spatial-temporal cell: one base temporal unit at one spatial unit.

    ``unit`` may refer to any level of the sp-index; base-level cells use base
    spatial units, coarser cells use their ancestors.
    """

    time: int
    unit: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"t{self.time}@{self.unit}"


@dataclass(frozen=True, order=True)
class PresenceInstance:
    """A single digital-trace record (Definition 1).

    Instances order lexicographically by ``(entity, unit, start, end)``, which
    makes traces easy to sort and compare in tests.

    Attributes
    ----------
    entity:
        Identifier of the entity the record belongs to.
    unit:
        Base spatial unit where the entity was present.
    start, end:
        Half-open period ``[start, end)`` in base temporal units.  ``end``
        must be strictly greater than ``start``.
    """

    entity: str
    unit: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"presence period must be non-empty, got [{self.start}, {self.end})"
            )
        if self.start < 0:
            raise ValueError(f"presence start must be non-negative, got {self.start}")

    @property
    def duration(self) -> int:
        """Length of the presence period in base temporal units."""
        return self.end - self.start

    def cells(self) -> Iterator[STCell]:
        """Base-level ST-cells covered by this presence instance."""
        for time in range(self.start, self.end):
            yield STCell(time, self.unit)

    def overlaps(self, other: "PresenceInstance") -> bool:
        """Whether the time periods of two presence instances intersect."""
        return self.start < other.end and other.start < self.end

    def overlap_period(self, other: "PresenceInstance") -> Tuple[int, int]:
        """The intersection of the two periods as ``(start, end)``.

        The result is empty (``start >= end``) when the periods are disjoint.
        """
        return max(self.start, other.start), min(self.end, other.end)


@dataclass(frozen=True)
class CellSequence:
    """The ST-cell set sequence of one entity (Section 4.1).

    ``levels[i]`` is the ST-cell set at sp-index level ``i + 1``;
    ``levels[-1]`` is the base-level set obtained directly from the digital
    trace, and coarser sets replace each base unit by its ancestor at that
    level.
    """

    levels: Tuple[FrozenSet[STCell], ...]

    @property
    def num_levels(self) -> int:
        """The sp-index depth ``m`` this sequence was built for."""
        return len(self.levels)

    @property
    def base_cells(self) -> FrozenSet[STCell]:
        """The level-``m`` (base) ST-cell set, ``seq_a^m`` in the paper."""
        return self.levels[-1]

    def at_level(self, level: int) -> FrozenSet[STCell]:
        """The ST-cell set at sp-index ``level`` (1-based)."""
        if not 1 <= level <= len(self.levels):
            raise ValueError(f"level {level} out of range [1, {len(self.levels)}]")
        return self.levels[level - 1]

    def size_at_level(self, level: int) -> int:
        """Number of ST-cells at ``level``."""
        return len(self.at_level(level))

    def is_empty(self) -> bool:
        """Whether the entity has no presence at all."""
        return not self.levels or not self.levels[-1]

    def restrict_base(self, keep: FrozenSet[STCell], hierarchy: SpatialHierarchy) -> "CellSequence":
        """A new sequence containing only the base cells in ``keep``.

        Used to materialise the *artificial entity* of Theorem 4, whose base
        cell set is the query's base cells minus a (partial) pruned set.
        """
        base = frozenset(cell for cell in self.base_cells if cell in keep)
        return cells_to_sequence(base, hierarchy)


def cells_to_sequence(base_cells: FrozenSet[STCell], hierarchy: SpatialHierarchy) -> CellSequence:
    """Lift a base-level ST-cell set to a full per-level :class:`CellSequence`.

    A cell ``(t, l_x)`` belongs to level ``i`` iff some base descendant of
    ``l_x`` is present at time ``t`` -- which is exactly the ancestor-mapping
    rule of Section 4.1 applied bottom-up.
    """
    num_levels = hierarchy.num_levels
    level_sets: list[set[STCell]] = [set() for _ in range(num_levels)]
    for cell in base_cells:
        path = hierarchy.path(cell.unit)
        if len(path) != num_levels:
            raise ValueError(
                f"cell {cell} does not reference a base spatial unit of the hierarchy"
            )
        for level, unit_id in enumerate(path, start=1):
            level_sets[level - 1].add(STCell(cell.time, unit_id))
    return CellSequence(levels=tuple(frozenset(cells) for cells in level_sets))


def cells_from_presences(
    presences: Sequence[PresenceInstance], hierarchy: SpatialHierarchy
) -> CellSequence:
    """Build the ST-cell set sequence of an entity from its presence instances."""
    base: set[STCell] = set()
    for presence in presences:
        base.update(presence.cells())
    return cells_to_sequence(frozenset(base), hierarchy)


@dataclass(frozen=True)
class CellTable:
    """The ST-cell set sequences of many entities as integer arrays.

    The array form of :class:`CellSequence`, built in one vectorised pass by
    :func:`cell_table_from_traces` for the consumers that read every entity
    (bulk signing, the columnar compile).  The distinct cells of all entities
    form one *universe*, laid out level by level and, within a level, in
    ``sorted(STCell)`` order: cell ``c`` is ``STCell(times[c],
    units[unit_codes[c]])``, and level ``i + 1`` owns the ids
    ``[level_offsets[i], level_offsets[i + 1])``.  Membership is a CSR with
    one segment per ``(entity, level)`` pair -- segment ``e * m + i`` is entity
    ``e`` at level ``i + 1`` -- holding the universe ids of that entity's
    cells at that level in ascending order.
    """

    #: :meth:`SpatialHierarchy.coded_units`: unit code -> unit id.
    units: Tuple[str, ...]
    level_offsets: np.ndarray
    times: np.ndarray
    unit_codes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_cells(self) -> int:
        """Size of the universe (distinct cells across all levels)."""
        return int(self.times.size)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of non-negative integers by sort and neighbour compare.

    Several times faster here than numpy's own, which hashes before sorting.
    """
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def cell_table_from_traces(
    traces: Sequence[Sequence[PresenceInstance]], hierarchy: SpatialHierarchy
) -> CellTable:
    """Build the :class:`CellTable` of entities ``0 .. len(traces) - 1``.

    Equivalent to :func:`cells_from_presences` per entity, without creating
    one object per cell: presence periods are expanded with ``np.repeat``,
    the level-``i`` cell of every row is encoded as ``(i, time,
    code(ancestor))`` in one integer, and a single sort over ``(entity,
    cell)`` keys orders and deduplicates all segments at once.
    """
    num_levels = hierarchy.num_levels
    units = hierarchy.coded_units()
    base_index = {unit: index for index, unit in enumerate(hierarchy.base_units)}
    records = list(chain.from_iterable(traces))
    count = len(records)
    base = np.fromiter((base_index[p.unit] for p in records), dtype=np.int64, count=count)
    start = np.fromiter((p.start for p in records), dtype=np.int64, count=count)
    duration = np.fromiter((p.end for p in records), dtype=np.int64, count=count) - start
    slot = np.repeat(
        np.arange(len(traces)),
        np.fromiter(map(len, traces), dtype=np.int64, count=len(traces)),
    )
    # One row per covered base temporal unit.
    record = np.repeat(np.arange(count), duration)
    first_row = np.cumsum(duration) - duration
    time = start[record] + np.arange(record.size) - first_row[record]

    # Cell code = (level index, time, unit code), mixed radix; a level's
    # unit codes are contiguous and in id order, so code order within a
    # level is sorted(STCell) order.
    level_span = (int(time.max()) + 1 if time.size else 1) * len(units)
    span = num_levels * level_span
    if len(traces) * span >= 1 << 63:
        raise OverflowError("cell codes of this dataset do not fit in 64 bits")
    row_key = slot[record] * span + time * len(units)
    level_key = hierarchy.ancestor_codes() + np.arange(num_levels)[:, None] * level_span
    keys = _sorted_unique((row_key + level_key[:, base[record]]).ravel())
    slot, cell = np.divmod(keys, span)
    universe = _sorted_unique(cell)
    indptr = np.zeros(len(traces) * num_levels + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(slot * num_levels + cell // level_span, minlength=indptr.size - 1),
        out=indptr[1:],
    )
    times, unit_codes = np.divmod(universe % level_span, len(units))
    return CellTable(
        units=units,
        level_offsets=np.searchsorted(universe, np.arange(num_levels + 1) * level_span),
        times=times,
        unit_codes=unit_codes,
        indptr=indptr,
        indices=np.searchsorted(universe, cell),
    )
