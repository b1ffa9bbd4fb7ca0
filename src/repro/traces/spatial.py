"""The sp-index: a hierarchical organisation of spatial units.

The paper assumes that physical locations exhibit a known hierarchical
structure (e.g. city - district - street - building) described by a tree, the
*sp-index*.  Levels are numbered from 1 (the coarsest units, children of a
virtual root) to ``m`` (the *base spatial units*, the atomic locations at
which presence instances are recorded).

:class:`SpatialHierarchy` stores this tree, validates that every base unit
sits at the same depth, and offers the navigation primitives the rest of the
library relies on: parents, children, ancestors at a given level, root-to-unit
paths and dense integer indexes for the units of each level (used by the
hashing layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SpatialUnit", "SpatialHierarchy"]


@dataclass
class SpatialUnit:
    """A node of the sp-index.

    Attributes
    ----------
    unit_id:
        Application-provided identifier (e.g. ``"W London"`` or ``"L3"``).
    level:
        Level in the sp-index, 1 for the coarsest units, ``m`` for base units.
    parent_id:
        Identifier of the parent unit, or ``None`` for level-1 units (whose
        conceptual parent is the virtual root).
    children_ids:
        Identifiers of the unit's children, in insertion order.
    """

    unit_id: str
    level: int
    parent_id: Optional[str] = None
    children_ids: List[str] = field(default_factory=list)

    @property
    def is_base(self) -> bool:
        """Whether the unit has no children (it is a base spatial unit)."""
        return not self.children_ids


class SpatialHierarchy:
    """The sp-index: a forest of spatial units with a uniform depth.

    The hierarchy is built incrementally with :meth:`add_unit` (parents must
    be added before their children) or in bulk with :meth:`from_parent_map` /
    :meth:`regular`.  Once all units are added, :meth:`validate` (called
    automatically by consumers such as :class:`~repro.traces.dataset.TraceDataset`)
    checks that every leaf lies at the same level ``m``.

    Level-1 units are the coarsest; base spatial units live at level ``m``.
    Multiple level-1 units are allowed, which models the paper's "multiple
    sp-index trees" through a single virtual root.
    """

    def __init__(self) -> None:
        self._units: Dict[str, SpatialUnit] = {}
        self._roots: List[str] = []
        self._validated = False
        self._num_levels = 0
        # Dense per-level indexes, built lazily by validate().
        self._level_index: Dict[int, Dict[str, int]] = {}
        self._level_units: Dict[int, List[str]] = {}
        self._base_descendants: Dict[str, Tuple[str, ...]] = {}
        self._paths: Dict[str, Tuple[str, ...]] = {}
        # Integer unit coding (see unit_codes), built lazily.
        self._unit_codes: Optional[Dict[str, int]] = None
        self._coded_units: Tuple[str, ...] = ()
        self._ancestor_codes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_unit(self, unit_id: str, parent_id: Optional[str] = None) -> SpatialUnit:
        """Add a spatial unit.

        Parameters
        ----------
        unit_id:
            Identifier of the new unit.  Must be unique in the hierarchy.
        parent_id:
            Identifier of the parent unit; ``None`` creates a level-1 unit.

        Returns
        -------
        SpatialUnit
            The newly created unit.

        Raises
        ------
        ValueError
            If the identifier already exists or the parent is unknown.
        """
        if unit_id in self._units:
            raise ValueError(f"duplicate spatial unit: {unit_id!r}")
        if parent_id is None:
            unit = SpatialUnit(unit_id=unit_id, level=1)
            self._roots.append(unit_id)
        else:
            parent = self._units.get(parent_id)
            if parent is None:
                raise ValueError(
                    f"parent {parent_id!r} of {unit_id!r} has not been added yet"
                )
            unit = SpatialUnit(unit_id=unit_id, level=parent.level + 1, parent_id=parent_id)
            parent.children_ids.append(unit_id)
        self._units[unit_id] = unit
        self._validated = False
        self._paths.clear()
        return unit

    @classmethod
    def from_parent_map(cls, parent_map: Mapping[str, Optional[str]]) -> "SpatialHierarchy":
        """Build a hierarchy from a ``child -> parent`` mapping.

        Entries whose parent is ``None`` become level-1 units.  The mapping
        may list children before parents; insertion order is resolved here.
        """
        hierarchy = cls()
        pending = dict(parent_map)
        added: set[str] = set()
        # Repeatedly add every unit whose parent is already present.
        while pending:
            progressed = False
            for unit_id in list(pending):
                parent_id = pending[unit_id]
                if parent_id is None or parent_id in added:
                    hierarchy.add_unit(unit_id, parent_id)
                    added.add(unit_id)
                    del pending[unit_id]
                    progressed = True
            if not progressed:
                unresolved = ", ".join(sorted(pending))
                raise ValueError(f"unresolvable parents for units: {unresolved}")
        hierarchy.validate()
        return hierarchy

    @classmethod
    def regular(cls, branching: Sequence[int], prefix: str = "u") -> "SpatialHierarchy":
        """Build a regular hierarchy with the given branching factor per level.

        ``branching[0]`` is the number of level-1 units, ``branching[i]`` the
        number of children of every level-``i`` unit.  Unit identifiers are
        ``"{prefix}{level}_{index}"``.  Useful for tests and examples.
        """
        if not branching:
            raise ValueError("branching must contain at least one level")
        hierarchy = cls()
        previous: List[str] = []
        for count in range(branching[0]):
            unit_id = f"{prefix}1_{count}"
            hierarchy.add_unit(unit_id)
            previous.append(unit_id)
        for level, fanout in enumerate(branching[1:], start=2):
            current: List[str] = []
            for parent_id in previous:
                for child in range(fanout):
                    unit_id = f"{prefix}{level}_{parent_id.split('_', 1)[1]}_{child}"
                    hierarchy.add_unit(unit_id, parent_id)
                    current.append(unit_id)
            previous = current
        hierarchy.validate()
        return hierarchy

    # ------------------------------------------------------------------
    # Validation and derived structures
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants and build the per-level indexes.

        Raises
        ------
        ValueError
            If the hierarchy is empty or its leaves are not all at the same
            depth (the paper requires base spatial units to form level ``m``).
        """
        if not self._units:
            raise ValueError("spatial hierarchy is empty")
        leaf_levels = {unit.level for unit in self._units.values() if unit.is_base}
        if len(leaf_levels) != 1:
            raise ValueError(
                f"all base spatial units must be at the same level, found levels {sorted(leaf_levels)}"
            )
        self._num_levels = leaf_levels.pop()
        self._level_units = {level: [] for level in range(1, self._num_levels + 1)}
        for unit_id, unit in self._units.items():
            self._level_units[unit.level].append(unit_id)
        self._level_index = {
            level: {unit_id: index for index, unit_id in enumerate(unit_ids)}
            for level, unit_ids in self._level_units.items()
        }
        self._base_descendants = {}
        self._unit_codes = None
        self._ancestor_codes = None
        self._validated = True

    def _ensure_validated(self) -> None:
        if not self._validated:
            self.validate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """The depth ``m`` of the sp-index (base spatial units live here)."""
        self._ensure_validated()
        return self._num_levels

    @property
    def num_units(self) -> int:
        """Total number of spatial units across all levels."""
        return len(self._units)

    @property
    def num_base_units(self) -> int:
        """Number of base spatial units (the set ``L`` in the paper)."""
        self._ensure_validated()
        return len(self._level_units[self._num_levels])

    @property
    def base_units(self) -> Tuple[str, ...]:
        """Identifiers of all base spatial units, in index order."""
        self._ensure_validated()
        return tuple(self._level_units[self._num_levels])

    def units_at_level(self, level: int) -> Tuple[str, ...]:
        """Identifiers of the units at ``level`` (1-based), in index order."""
        self._ensure_validated()
        if level not in self._level_units:
            raise ValueError(f"level {level} out of range [1, {self._num_levels}]")
        return tuple(self._level_units[level])

    def __contains__(self, unit_id: str) -> bool:
        return unit_id in self._units

    def __len__(self) -> int:
        return len(self._units)

    def unit(self, unit_id: str) -> SpatialUnit:
        """Return the :class:`SpatialUnit` for ``unit_id``."""
        try:
            return self._units[unit_id]
        except KeyError:
            raise KeyError(f"unknown spatial unit: {unit_id!r}") from None

    def level_of(self, unit_id: str) -> int:
        """Level of ``unit_id`` in the sp-index."""
        return self.unit(unit_id).level

    def parent_of(self, unit_id: str) -> Optional[str]:
        """Parent identifier of ``unit_id``, or ``None`` for level-1 units."""
        return self.unit(unit_id).parent_id

    def children_of(self, unit_id: str) -> Tuple[str, ...]:
        """Identifiers of the children of ``unit_id``."""
        return tuple(self.unit(unit_id).children_ids)

    def unit_index(self, unit_id: str) -> int:
        """Dense index of ``unit_id`` among the units of its level."""
        self._ensure_validated()
        unit = self.unit(unit_id)
        return self._level_index[unit.level][unit_id]

    def base_unit_index(self, unit_id: str) -> int:
        """Dense index of a base spatial unit among all base units."""
        self._ensure_validated()
        unit = self.unit(unit_id)
        if unit.level != self._num_levels:
            raise ValueError(f"{unit_id!r} is not a base spatial unit")
        return self._level_index[self._num_levels][unit_id]

    def base_unit_at(self, index: int) -> str:
        """Inverse of :meth:`base_unit_index`."""
        self._ensure_validated()
        return self._level_units[self._num_levels][index]

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def path(self, unit_id: str) -> Tuple[str, ...]:
        """The root-to-unit path (level-1 ancestor first, the unit itself last).

        Memoised per unit (every ST-cell lift walks it); :meth:`add_unit`
        clears the memo.
        """
        cached = self._paths.get(unit_id)
        if cached is not None:
            return cached
        chain: List[str] = []
        current: Optional[str] = unit_id
        while current is not None:
            chain.append(current)
            current = self.unit(current).parent_id
        path = tuple(reversed(chain))
        self._paths[unit_id] = path
        return path

    def ancestors(self, unit_id: str) -> Tuple[str, ...]:
        """All proper ancestors of ``unit_id``, ordered from level 1 downwards."""
        return self.path(unit_id)[:-1]

    def ancestor_at_level(self, unit_id: str, level: int) -> str:
        """The (possibly improper) ancestor of ``unit_id`` at ``level``.

        Raises
        ------
        ValueError
            If ``level`` is deeper than the unit's own level.
        """
        unit = self.unit(unit_id)
        if level > unit.level or level < 1:
            raise ValueError(
                f"cannot take the level-{level} ancestor of {unit_id!r} at level {unit.level}"
            )
        chain = self.path(unit_id)
        return chain[level - 1]

    def unit_codes(self) -> Dict[str, int]:
        """Unit id -> *code*: its position when ordered by level, then by id.

        The code is the integer standing for the unit in
        :class:`~repro.traces.events.CellTable`: within a level, code order is
        (string) id order, so integer order of ``(time, code)`` is
        ``sorted(STCell)`` order.  Cached until the hierarchy changes.
        """
        self._ensure_validated()
        if self._unit_codes is None:
            ordered = [unit_id for units in self._level_units.values() for unit_id in sorted(units)]
            self._unit_codes = {unit_id: code for code, unit_id in enumerate(ordered)}
            self._coded_units = tuple(ordered)
        return self._unit_codes

    def coded_units(self) -> Tuple[str, ...]:
        """Inverse of :meth:`unit_codes`: the unit id of every code."""
        self.unit_codes()
        return self._coded_units

    def ancestor_codes(self) -> np.ndarray:
        """Codes of every base unit's root-to-unit path: shape ``(m, |L|)``.

        Column ``b`` is the path of the base unit with dense index ``b``,
        level 1 first, as :meth:`unit_codes` codes.  Cached like them.
        """
        code_of = self.unit_codes()
        if self._ancestor_codes is None:
            self._ancestor_codes = np.array(
                [[code_of[unit_id] for unit_id in self.path(base)] for base in self.base_units],
                dtype=np.int64,
            ).T
        return self._ancestor_codes

    def base_descendants(self, unit_id: str) -> Tuple[str, ...]:
        """All base spatial units in the subtree rooted at ``unit_id``.

        The result is cached; the hashing layer calls this for every
        non-base unit touched by a trace.
        """
        self._ensure_validated()
        cached = self._base_descendants.get(unit_id)
        if cached is not None:
            return cached
        unit = self.unit(unit_id)
        if unit.is_base:
            result: Tuple[str, ...] = (unit_id,)
        else:
            collected: List[str] = []
            stack = list(unit.children_ids)
            while stack:
                current = stack.pop()
                node = self._units[current]
                if node.is_base:
                    collected.append(current)
                else:
                    stack.extend(node.children_ids)
            result = tuple(collected)
        self._base_descendants[unit_id] = result
        return result

    def common_ancestor_level(self, unit_a: str, unit_b: str) -> int:
        """Depth of the deepest common ancestor of two base (or other) units.

        Returns 0 when the units share no ancestor (they belong to different
        level-1 subtrees), which corresponds to an empty ``path_ab`` in the
        paper's AjPI definition.
        """
        path_a = self.path(unit_a)
        path_b = self.path(unit_b)
        depth = 0
        for ancestor_a, ancestor_b in zip(path_a, path_b):
            if ancestor_a != ancestor_b:
                break
            depth += 1
        return depth

    def iter_units(self) -> Iterable[SpatialUnit]:
        """Iterate over every spatial unit in the hierarchy."""
        return iter(self._units.values())

    def describe(self) -> str:
        """A short human-readable summary of the hierarchy shape."""
        self._ensure_validated()
        parts = [
            f"level {level}: {len(self._level_units[level])} units"
            for level in range(1, self._num_levels + 1)
        ]
        return f"SpatialHierarchy(m={self._num_levels}; " + ", ".join(parts) + ")"
