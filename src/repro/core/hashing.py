"""The hierarchical MinHash family (Section 4.2.1).

A family of ``n_h`` universal hash functions maps every *base* ST-cell
``(t, l)`` -- encoded as the integer ``t * |L| + index(l)`` -- to a value in
``[0, |S| - 1]`` where ``|S| = |L| * horizon`` is the size of the ST-cell
universe.  Cells at coarser levels are hashed through the paper's parent
constraint:

    ``h_u(t, l_x) = min over children l_c of l_x of h_u(t, l_c)``

applied recursively, i.e. the hash of a coarse cell is the minimum hash of
all its *base* descendants at the same time.  This guarantees Theorem 1
(signatures at coarser levels are element-wise no larger than at finer
levels) and makes signatures of different levels comparable, which is what
the MinSigTree's pruning relies on.

Hash evaluation is vectorised with numpy across the whole family.  Two
evaluation paths share the exact same modular arithmetic and are therefore
bitwise-identical:

* the **per-cell path** (:meth:`HierarchicalHashFamily.hash_cell`), which
  caches one hash vector per (time, unit) cell -- the right tool for
  incremental updates and single queries, where popular coarse cells are
  shared across calls; and
* the **bulk path** (:meth:`HierarchicalHashFamily.hash_cells_bulk`), which
  lays every cell's base-descendant codes into one flat array, evaluates the
  whole family with a single broadcasted modular-hash kernel, and reduces
  per-cell minima with ``np.minimum.reduceat`` -- the right tool when signing
  a whole dataset at once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.traces.events import STCell
from repro.traces.spatial import SpatialHierarchy

__all__ = ["HierarchicalHashFamily"]

# A Mersenne prime: universal hashing modulus.  Coefficients and (reduced)
# cell codes are both below 2^31, so products fit comfortably in uint64.
_MERSENNE_PRIME = (1 << 31) - 1

# Soft cap on the number of grid elements materialised per bulk-kernel chunk;
# keeps peak memory of the bulk path around a hundred MB regardless of
# dataset size.
_BULK_CHUNK_ELEMENTS = 1 << 23


class HierarchicalHashFamily:
    """``n_h`` universal hash functions over ST-cells with the parent constraint.

    Parameters
    ----------
    hierarchy:
        The sp-index; needed to enumerate base descendants of coarse units.
    horizon:
        Number of base temporal units; together with the number of base
        spatial units it fixes the hash range ``|S|``.
    num_hashes:
        Family size ``n_h`` (the signature dimensionality).
    seed:
        Seed for the hash coefficients; two families built with the same seed
        and shape are identical, which the incremental-update path relies on.
    """

    def __init__(
        self,
        hierarchy: SpatialHierarchy,
        horizon: int,
        num_hashes: int,
        seed: int = 0,
    ) -> None:
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        hierarchy.validate()
        self.hierarchy = hierarchy
        self.horizon = int(horizon)
        self.num_hashes = int(num_hashes)
        self.seed = int(seed)
        self.num_base_units = hierarchy.num_base_units
        #: Size of the ST-cell universe; hash values live in [0, hash_range).
        self.hash_range = self.num_base_units * self.horizon
        if self.hash_range >= _MERSENNE_PRIME:
            raise ValueError(
                f"ST-cell universe of size {self.hash_range} exceeds the hash modulus; "
                "reduce the horizon or the number of base units"
            )
        #: Narrowest unsigned dtype holding every hash value (uint16 up to
        #: 65 536 cells); the bulk kernel reduces in it.
        self.value_dtype = np.min_scalar_type(self.hash_range - 1)

        rng = np.random.default_rng(seed)
        # Multipliers must be non-zero modulo the prime for universality.
        self._a = rng.integers(1, _MERSENNE_PRIME, size=self.num_hashes, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=self.num_hashes, dtype=np.uint64)
        # Cache of hash vectors per cell; keyed by (time, unit_id).
        self._cell_cache: Dict[Tuple[int, str], np.ndarray] = {}
        # Cache of base descendant index arrays per non-base unit.
        self._descendant_indexes: Dict[str, np.ndarray] = {}
        # Bulk-path caches: subtree layouts and the integer unit coding.
        self._layouts: Dict[str, Dict[str, object]] = {}
        self._tables: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_base_cell(self, time: int, unit_id: str) -> int:
        """Integer code of a base ST-cell (row-major over time then unit)."""
        index = self.hierarchy.base_unit_index(unit_id)
        return int(time) * self.num_base_units + index

    def _codes_for_unit(self, time: int, unit_id: str) -> np.ndarray:
        """Codes of all base descendants of ``unit_id`` at ``time``."""
        indexes = self._descendant_indexes.get(unit_id)
        if indexes is None:
            descendants = self.hierarchy.base_descendants(unit_id)
            indexes = np.array(
                [self.hierarchy.base_unit_index(base) for base in descendants],
                dtype=np.uint64,
            )
            self._descendant_indexes[unit_id] = indexes
        return np.uint64(time) * np.uint64(self.num_base_units) + indexes

    # ------------------------------------------------------------------
    # Hash evaluation
    # ------------------------------------------------------------------
    def _hash_codes(self, codes: np.ndarray) -> np.ndarray:
        """Hash a vector of cell codes with every function: shape (n_h, len(codes))."""
        if codes.size == 0:
            return np.empty((self.num_hashes, 0), dtype=np.int64)
        reduced = codes.astype(np.uint64) % np.uint64(_MERSENNE_PRIME)
        # a, reduced < 2^31, so a * reduced < 2^62 fits in uint64.
        product = (self._a[:, None] * reduced[None, :] + self._b[:, None]) % np.uint64(
            _MERSENNE_PRIME
        )
        return (product % np.uint64(self.hash_range)).astype(np.int64)

    def hash_base_cell(self, time: int, unit_id: str) -> np.ndarray:
        """Hash vector (length ``n_h``) of a base ST-cell."""
        code = np.array([self.encode_base_cell(time, unit_id)], dtype=np.uint64)
        return self._hash_codes(code)[:, 0]

    def hash_cell(self, cell: STCell) -> np.ndarray:
        """Hash vector of an ST-cell at any level (cached).

        For base cells this is the direct universal hash; for coarser cells it
        is the element-wise minimum over all base descendants at the same
        time, which realises the parent constraint exactly.
        """
        key = (cell.time, cell.unit)
        cached = self._cell_cache.get(key)
        if cached is not None:
            return cached
        unit = self.hierarchy.unit(cell.unit)
        if unit.is_base:
            values = self.hash_base_cell(cell.time, cell.unit)
        else:
            codes = self._codes_for_unit(cell.time, cell.unit)
            values = self._hash_codes(codes).min(axis=1)
        self._cell_cache[key] = values
        return values

    def hash_value(self, function_index: int, cell: STCell) -> int:
        """Scalar hash ``h_u(cell)`` for one function of the family."""
        if not 0 <= function_index < self.num_hashes:
            raise IndexError(f"hash function index {function_index} out of range")
        return int(self.hash_cell(cell)[function_index])

    def hash_matrix(self, cells: Iterable[STCell]) -> np.ndarray:
        """Stack hash vectors of many cells into a matrix of shape (n_cells, n_h)."""
        rows = [self.hash_cell(cell) for cell in cells]
        if not rows:
            return np.empty((0, self.num_hashes), dtype=np.int64)
        return np.stack(rows, axis=0)

    # ------------------------------------------------------------------
    # Bulk evaluation (no per-cell cache)
    # ------------------------------------------------------------------
    def hash_cells_bulk(
        self, cells: Sequence[STCell], out_dtype: np.dtype = np.int64
    ) -> np.ndarray:
        """Hash many cells with one broadcasted kernel: shape (n_cells, n_h).

        Bitwise-identical to stacking :meth:`hash_cell` results, but the
        per-cell dict cache is bypassed entirely.  A thin adapter: encodes
        the cells as integers and calls :meth:`hash_coded_cells`.
        """
        code_of = self.hierarchy.unit_codes()
        count = len(cells)
        codes = np.fromiter((code_of[cell.unit] for cell in cells), dtype=np.int64, count=count)
        times = np.fromiter((cell.time for cell in cells), dtype=np.int64, count=count)
        return self.hash_coded_cells(times, codes, out_dtype)

    def hash_coded_cells(
        self, times: np.ndarray, unit_codes: np.ndarray, out_dtype: np.dtype = np.int64
    ) -> np.ndarray:
        """Hash the cells ``(times[c], unit_codes[c])``: shape (n_cells, n_h).

        Units are given by their :meth:`SpatialHierarchy.unit_codes` codes
        (a cell table's universe arrives in this form).  Cells are grouped
        by their level-1 subtree; for each subtree the whole (time x
        base-descendant) hash grid is evaluated with a decomposed modular
        kernel (the time and unit terms of ``a * (t*|L| + i) + b`` are
        combined with one addition modulo the prime instead of one
        multiplication per grid element), and coarse-cell minima are then
        reduced *hierarchically* -- one grouped minimum per sp-index level
        -- so each base hash value is read once per level instead of once
        per ancestor cell.  Work is chunked over times so peak memory stays
        bounded.

        ``out_dtype`` may be any integer dtype holding ``[0, hash_range)``;
        the bulk signature pipeline passes :attr:`value_dtype` (the kernel's
        own) so its reduction stage moves the fewest bytes.
        """
        out = np.empty((unit_codes.size, self.num_hashes), dtype=out_dtype)
        units = self.hierarchy.coded_units()
        level_of, root_of, slot_of = self._unit_tables()
        roots = root_of[unit_codes]
        for root in np.unique(roots).tolist():
            positions = np.flatnonzero(roots == root)
            codes = unit_codes[positions]
            self._hash_subtree_group(
                out, positions, units[root], level_of[codes], times[positions], slot_of[codes]
            )
        return out

    def _unit_tables(self) -> np.ndarray:
        """Per unit code: level, level-1 ancestor's code, layout slot (rows 0-2).

        The slot is the unit's position among the units of its level in its
        level-1 subtree's pre-order layout.  Built once, cached.
        """
        if self._tables is None:
            code_of = self.hierarchy.unit_codes()
            level_of, root_of, slot_of = tables = np.empty((3, len(code_of)), dtype=np.int64)
            for root in self.hierarchy.units_at_level(1):
                for level, level_units in self._subtree_layout(root)["units"].items():
                    codes = [code_of[unit_id] for unit_id in level_units]
                    level_of[codes] = level
                    root_of[codes] = code_of[root]
                    slot_of[codes] = np.arange(len(codes))
            self._tables = tables
        return self._tables

    def _subtree_layout(self, root: str) -> Dict[str, object]:
        """Pre-order layout of one level-1 subtree (cached).

        ``units[level]`` lists the subtree's level-``level`` units in
        pre-order (so every unit's children are consecutive in the next
        level's list; a unit's position is its *slot*), ``plans[level]``
        says how to reduce the level-``level+1`` axis onto level ``level``,
        and ``base_idx`` holds the dense base-unit indexes in the same
        pre-order.
        """
        cached = self._layouts.get(root)
        if cached is not None:
            return cached
        num_levels = self.hierarchy.num_levels
        units: Dict[int, List[str]] = {level: [] for level in range(1, num_levels + 1)}
        counts: Dict[int, List[int]] = {level: [] for level in range(1, num_levels)}
        stack = [root]
        while stack:
            unit = self.hierarchy.unit(stack.pop())
            units[unit.level].append(unit.unit_id)
            if not unit.is_base:
                counts[unit.level].append(len(unit.children_ids))
                stack.extend(reversed(unit.children_ids))
        # Reduction plan per level: children are consecutive in the next
        # level's pre-order, so a uniform fan-out reduces with a plain
        # reshape + min (SIMD-friendly, unlike ufunc.reduceat); mixed
        # fan-outs are grouped by count and gathered per group.
        plans: Dict[int, object] = {}
        for level, level_counts in counts.items():
            count_arr = np.array(level_counts, dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(count_arr)[:-1]))
            if count_arr.size and (count_arr == count_arr[0]).all():
                plans[level] = ("uniform", int(count_arr[0]))
            else:
                groups = []
                for count in np.unique(count_arr):
                    parent_pos = np.flatnonzero(count_arr == count)
                    child_idx = offsets[parent_pos][:, None] + np.arange(count)[None, :]
                    groups.append((parent_pos, child_idx))
                plans[level] = ("grouped", groups)
        layout = {
            "units": units,
            "plans": plans,
            "base_idx": np.array(
                [self.hierarchy.base_unit_index(unit_id) for unit_id in units[num_levels]],
                dtype=np.uint64,
            ),
        }
        self._layouts[root] = layout
        return layout

    def _hash_subtree_group(
        self,
        out: np.ndarray,
        positions: np.ndarray,
        root: str,
        levels: np.ndarray,
        cell_times: np.ndarray,
        unit_slots: np.ndarray,
    ) -> None:
        """Fill ``out[positions]`` for cells under one level-1 subtree.

        The cells are given as parallel ``(level, time, layout slot)``
        arrays.  Grids are laid out time-major -- ``(n_times, n_units, n_h)``
        -- so every reduction and gather touches contiguous length-``n_h``
        rows: the hierarchy minimum reduces a middle axis with a
        SIMD-friendly contiguous inner axis, and scattering a cell's hash
        vector into the output is a straight row copy.
        """
        layout = self._subtree_layout(root)
        num_levels = self.hierarchy.num_levels

        times = np.unique(cell_times).astype(np.uint64)
        time_slots = np.searchsorted(times, cell_times.astype(np.uint64))
        min_level = int(levels.min())
        level_refs = {}
        for level in np.unique(levels).tolist():
            members = levels == level
            level_refs[level] = (time_slots[members], unit_slots[members], positions[members])

        prime = np.uint64(_MERSENNE_PRIME)
        base_idx = layout["base_idx"]
        # Unit term of the decomposed universal hash: (a*i + b) mod p per
        # (base descendant, function); a, i < 2^31 so products fit in uint64.
        # Once reduced mod p both terms fit in 32 bits, so the grid-sized
        # arithmetic below runs entirely in uint32: the sum of two residues
        # is < 2p - 1 < 2^32 (no overflow), and 32-bit arithmetic moves half
        # the bytes of the uint64 equivalent.
        unit_term = (
            (base_idx[:, None] * self._a[None, :] + self._b[None, :]) % prime
        ).astype(np.uint32)

        num_base = base_idx.size
        chunk = max(1, _BULK_CHUNK_ELEMENTS // max(1, self.num_hashes * num_base))
        for start in range(0, times.size, chunk):
            chunk_times = times[start : start + chunk]
            # Time term: a * ((t*|L|) mod p) mod p, shape (n_t, n_h).
            time_codes = (chunk_times * np.uint64(self.num_base_units)) % prime
            time_term = ((time_codes[:, None] * self._a[None, :]) % prime).astype(np.uint32)
            # One broadcasted addition replaces the per-element
            # multiplication of the naive kernel: a*(t*|L| + i) + b splits
            # into the precomputed unit and time residues.  Both residues are
            # < p, so their sum mod p is one branchless subtract: below p,
            # ``grid - p`` wraps above ``grid`` and the minimum keeps ``grid``.
            grid = time_term[:, None, :] + unit_term[None, :, :]
            np.minimum(grid, grid - np.uint32(_MERSENNE_PRIME), out=grid)
            grid %= np.uint32(self.hash_range)
            grid = grid.astype(self.value_dtype, copy=False)  # the minima run narrow
            # Hierarchical parent-constraint minima: level l's grid is the
            # minimum of level l+1 over each unit's (consecutive) children.
            level_grids = {num_levels: grid}
            for level in range(num_levels - 1, min_level - 1, -1):
                kind, plan = layout["plans"][level]
                n_t = grid.shape[0]
                if kind == "uniform":
                    n_child = grid.shape[1]
                    grid = grid.reshape(n_t, n_child // plan, plan, -1).min(axis=2)
                else:
                    n_parents = sum(parent_pos.size for parent_pos, _child_idx in plan)
                    reduced = np.empty((n_t, n_parents, self.num_hashes), dtype=grid.dtype)
                    for parent_pos, child_idx in plan:
                        reduced[:, parent_pos, :] = grid[:, child_idx, :].min(axis=2)
                    grid = reduced
                level_grids[level] = grid
            stop = start + chunk_times.size
            for level, (time_slots, unit_slots, out_positions) in level_refs.items():
                in_chunk = (time_slots >= start) & (time_slots < stop)
                if not in_chunk.any():
                    continue
                # Row-wise scatter: each cell's hash vector is a contiguous
                # row of the time-major grid, so this is a block of memcpys.
                out[out_positions[in_chunk]] = level_grids[level][
                    time_slots[in_chunk] - start, unit_slots[in_chunk], :
                ]

    def warm_cache(self, cells: Iterable[STCell]) -> int:
        """Bulk-hash ``cells`` into the per-cell cache; returns how many were new.

        Used by the batch query loop: the union of every query entity's
        cells is hashed once with the vectorised kernel, so individual
        searches then hit the cache instead of hashing cell by cell.
        """
        missing = [
            cell
            for cell in dict.fromkeys(cells)
            if (cell.time, cell.unit) not in self._cell_cache
        ]
        if not missing:
            return 0
        matrix = self.hash_cells_bulk(missing)
        for row, cell in zip(matrix, missing):
            self._cell_cache[(cell.time, cell.unit)] = row
        return len(missing)

    # ------------------------------------------------------------------
    # Coefficient export / restore (the snapshot codec)
    # ------------------------------------------------------------------
    def export_coefficients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the universal-hash coefficient vectors ``(a, b)``.

        Persisting the coefficients (rather than trusting the RNG seed to
        regenerate them) makes restored families bitwise-identical even if a
        future numpy changes its bit-generator streams.
        """
        return self._a.copy(), self._b.copy()

    def restore_coefficients(self, a: np.ndarray, b: np.ndarray) -> None:
        """Install previously exported coefficients, replacing the seeded ones.

        Raises
        ------
        ValueError
            If the arrays do not match the family size or fall outside the
            ranges universal hashing requires.
        """
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if a.shape != (self.num_hashes,) or b.shape != (self.num_hashes,):
            raise ValueError(
                f"coefficient arrays must have shape ({self.num_hashes},), "
                f"got {a.shape} and {b.shape}"
            )
        prime = np.uint64(_MERSENNE_PRIME)
        if not ((a >= 1) & (a < prime)).all() or not (b < prime).all():
            raise ValueError("hash coefficients out of range for the universal family")
        self._a = a
        self._b = b
        self._cell_cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of cached cell hash vectors (useful for memory accounting)."""
        return len(self._cell_cache)

    def clear_cache(self) -> None:
        """Drop the cell hash cache (e.g. between unrelated experiments)."""
        self._cell_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalHashFamily(num_hashes={self.num_hashes}, "
            f"range={self.hash_range}, seed={self.seed})"
        )
