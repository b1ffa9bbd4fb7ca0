"""Per-entity signature lists (Section 4.2.1).

An entity's signature at sp-index level ``i`` is the element-wise minimum of
the hash vectors of its level-``i`` ST-cells:

    ``sig_a^i[u] = min over cells s in seq_a^i of h_u(s)``.

Because coarse cells are hashed with the parent constraint, Theorem 1 holds:
``sig_a^i[u] <= sig_a^{i+1}[u]`` for every ``u``.  Signatures are represented
as an ``(m, n_h)`` integer matrix with level 1 in row 0, and the ST-cell
universe size serves as the "positive infinity" initial value for entities
with no presence at some level (this only happens for empty traces).

Two construction paths produce **bitwise-identical** matrices:

* the **per-entity path** (:meth:`SignatureComputer.signature_matrix`):
  hashes one entity's cells through the family's per-cell cache -- used for
  incremental updates and ad-hoc signing;
* the **bulk path** (:meth:`SignatureComputer.bulk_signature_matrices`):
  takes the unique ST-cells of a whole dataset from its integer cell table,
  hashes them once with the vectorised bulk kernel, and reduces
  per-(entity, level) minima over dense gathers -- used when building (or
  batch-updating) the MinSigTree, where it is several times faster because
  the ``|E| * C * m * n_h`` hash evaluations of Section 4.3 collapse into a
  handful of broadcasted numpy calls.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.hashing import HierarchicalHashFamily
from repro.traces.dataset import TraceDataset
from repro.traces.events import CellSequence, CellTable

__all__ = ["SignatureComputer"]

# Soft cap on the number of gathered (cell-row, hash-function) elements per
# reduction chunk of the bulk path (same spirit as the hashing kernel's cap).
_BULK_REDUCE_ELEMENTS = 1 << 22


class SignatureComputer:
    """Computes the per-level signature matrix of entities.

    Parameters
    ----------
    hash_family:
        The hierarchical MinHash family shared by the whole index.
    """

    def __init__(self, hash_family: HierarchicalHashFamily) -> None:
        self.hash_family = hash_family

    @property
    def num_hashes(self) -> int:
        """Signature dimensionality ``n_h``."""
        return self.hash_family.num_hashes

    @property
    def empty_value(self) -> int:
        """Sentinel used for levels with no presence (acts as ``+inf``)."""
        return self.hash_family.hash_range

    def signature_matrix(self, sequence: CellSequence) -> np.ndarray:
        """Signature list of one entity as an ``(m, n_h)`` matrix.

        Row ``i`` holds ``sig^{i+1}`` (level 1 first).  Levels with no cells
        keep the sentinel :attr:`empty_value` in every position.
        """
        num_levels = sequence.num_levels
        matrix = np.full((num_levels, self.num_hashes), self.empty_value, dtype=np.int64)
        for level_index, cells in enumerate(sequence.levels):
            if not cells:
                continue
            hashes = self.hash_family.hash_matrix(cells)
            matrix[level_index] = hashes.min(axis=0)
        return matrix

    # ------------------------------------------------------------------
    # Bulk path
    # ------------------------------------------------------------------
    def bulk_signature_matrices(
        self,
        dataset: TraceDataset,
        entities: Optional[Iterable[str]] = None,
        table: Optional[CellTable] = None,
    ) -> Dict[str, np.ndarray]:
        """Signature matrices for many entities via the vectorised bulk kernel.

        The unique ST-cells across all selected entities and levels come
        from :meth:`TraceDataset.cell_table` (no per-entity
        :class:`CellSequence` is built), are hashed once with
        :meth:`HierarchicalHashFamily.hash_coded_cells` (amortising popular
        coarse cells exactly like the per-cell cache does), and every
        (entity, level) minimum is then taken over the gathered hash rows.
        The result is bitwise-identical to calling :meth:`signature_matrix`
        per entity -- the equivalence test-suite pins this.  ``table``, when
        the caller already holds it, is ``dataset.cell_table(entities)``
        (``build()`` compiles the query kernel from the same table).
        """
        selected = dataset.entities if entities is None else tuple(entities)
        if not hasattr(self.hash_family, "hash_coded_cells"):
            # Duck-typed hash families (e.g. the paper's worked-example
            # table) only need the per-cell interface.
            return {
                entity: self.signature_matrix(dataset.cell_sequence(entity))
                for entity in selected
            }
        num_levels = dataset.num_levels
        # One (n, m, n_h) block; each entity's matrix is a view into it.
        block = np.full(
            (len(selected), num_levels, self.num_hashes), self.empty_value, dtype=np.int64
        )
        matrices = dict(zip(selected, block))

        # 1. The cell table: every (entity, level) segment as sorted ids
        #    into the deduplicated cell universe of the selection.
        if table is None:
            table = dataset.cell_table(selected)

        # 2. One vectorised hash evaluation over the unique cells, kept in
        #    the family's value dtype (uint16 up to 65 536 cells), which
        #    shrinks the memory traffic of the reduction below; the final
        #    matrices are int64, and equality with the per-entity path is
        #    exact because only the dtype, never a value, differs.
        cell_hashes = self.hash_family.hash_coded_cells(
            table.times, table.unit_codes, out_dtype=self.hash_family.value_dtype
        )

        # 3. Per-segment minima.  Segments are grouped by cell count so each
        #    group reduces with one gather + one SIMD-friendly ``min`` over a
        #    dense (segments, count, n_h) block (ufunc.reduceat's generic
        #    inner loop is several times slower); chunked to bound memory.
        rows = block.reshape(-1, self.num_hashes)
        starts = table.indptr[:-1]
        lengths = np.diff(table.indptr)
        budget = max(1, _BULK_REDUCE_ELEMENTS // self.num_hashes)
        for length in np.unique(lengths[lengths > 0]).tolist():
            segments = np.flatnonzero(lengths == length)
            rows_per_chunk = max(1, budget // length)
            for chunk_start in range(0, segments.size, rows_per_chunk):
                chunk = segments[chunk_start : chunk_start + rows_per_chunk]
                ref_block = table.indices[starts[chunk, None] + np.arange(length)]
                rows[chunk] = cell_hashes[ref_block].min(axis=1)
        return matrices

    def signatures_for_dataset(
        self,
        dataset: TraceDataset,
        entities: Optional[Iterable[str]] = None,
    ) -> Dict[str, np.ndarray]:
        """Signature matrices for every entity of ``dataset`` (or a subset).

        The index-build entry point; runs the vectorised bulk pipeline
        (:meth:`bulk_signature_matrices`).
        """
        return self.bulk_signature_matrices(dataset, entities)

    def hash_operations(self, dataset: TraceDataset) -> int:
        """Number of scalar hash evaluations a full re-signing would need.

        Matches the ``|E| * C * m * n_h`` processor-cost term of Section 4.3
        (up to the constant) and is used by the indexing-cost benchmark to
        report a machine-independent work measure.
        """
        return int(dataset.cell_table().indices.size) * self.num_hashes
