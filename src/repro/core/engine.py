"""The high-level facade: :class:`TraceQueryEngine`.

The engine wires together the pieces a downstream user needs to run top-k
queries over digital traces:

1. a :class:`~repro.traces.dataset.TraceDataset` (the digital traces and the
   sp-index),
2. an association degree measure (default: the paper's
   :class:`~repro.measures.adm.HierarchicalADM` with ``u = v = 2``),
3. the hierarchical MinHash family and per-entity signatures,
4. the MinSigTree, and
5. the best-first top-k searcher.

Typical usage::

    engine = TraceQueryEngine(dataset, num_hashes=256, seed=7)
    engine.build()
    result = engine.top_k("device-123", k=10)
    for entity, degree in result:
        print(entity, degree)

Index construction routes signatures through the vectorised bulk pipeline
(bitwise-identical to per-entity :meth:`SignatureComputer.signature_matrix`
calls, the oracle its tests compare against).  ``top_k``, ``top_k_batch``
and the result cache come from :class:`~repro.service.cache.QueryFront`,
shared with the sharded engine; this engine supplies only the search.
Batched queries run through :func:`~repro.core.query.run_query_batch`,
which shares query-cell hashing across the batch and can fan out over
worker threads (``EngineConfig.batch_workers``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.hashing import HierarchicalHashFamily
from repro.core.minsigtree import MinSigTree
from repro.core.query import TopKResult, TopKSearcher
from repro.core.signatures import SignatureComputer
from repro.measures.adm import HierarchicalADM
from repro.obs.trace import SpanContext
from repro.measures.base import AssociationMeasure
from repro.service.cache import QueryFront
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measures.base import AssociationMeasure as _Measure
    from repro.storage.snapshot import _SnapshotSource

__all__ = ["EngineConfig", "ExpiryReport", "TraceQueryEngine"]

PathLike = Union[str, Path]


@dataclass
class ExpiryReport:
    """The outcome of one :meth:`TraceQueryEngine.expire_events` call.

    Retraction is *incremental and tiered*: entities whose whole trace
    expired are removed from the index; surviving entities are re-signed
    from their remaining records, and the tree is only touched when the new
    signature actually differs (expired cells that never achieved a level
    minimum leave the signature bitwise-unchanged, so the entity stays
    where it is and no group-level looseness is introduced).
    """

    #: The watermark passed to ``expire_events``: every record with
    #: ``end <= cutoff`` was dropped.
    cutoff: int
    #: Total presence instances removed across all entities.
    expired_records: int = 0
    #: Entities whose whole trace expired (dropped from dataset and index).
    removed_entities: List[str] = field(default_factory=list)
    #: Surviving entities whose signature changed and were re-indexed.
    resigned_entities: List[str] = field(default_factory=list)
    #: Surviving entities that lost records but kept an identical signature
    #: (the tree was not touched for them).
    unchanged_entities: List[str] = field(default_factory=list)

    @property
    def affected_entities(self) -> List[str]:
        """Every entity that lost at least one record."""
        return self.removed_entities + self.resigned_entities + self.unchanged_entities

    @property
    def changed_index(self) -> bool:
        """Whether the MinSigTree was modified at all."""
        return bool(self.removed_entities or self.resigned_entities)

    def absorb(self, other: "ExpiryReport") -> None:
        """Fold another report into this one (sharded aggregation)."""
        self.expired_records += other.expired_records
        self.removed_entities.extend(other.removed_entities)
        self.resigned_entities.extend(other.resigned_entities)
        self.unchanged_entities.extend(other.unchanged_entities)


@dataclass
class EngineConfig:
    """Tunable knobs of the engine.

    Attributes
    ----------
    num_hashes:
        Number of hash functions ``n_h`` (signature dimensionality).  The
        paper sweeps 200–2000; the default of 256 is a good laptop-scale
        compromise between pruning power and indexing cost.
    seed:
        Seed of the hash family (index construction is deterministic given
        the seed and the dataset).
    store_full_signatures:
        Keep full group-level signatures on MinSigTree nodes (Section 4.2.2's
        storage/pruning trade-off knob; off by default, as in the paper).
    use_full_signatures:
        Evaluate query bounds with the full signatures (requires the above).
    batch_workers:
        Default thread-pool size for :meth:`TraceQueryEngine.top_k_batch`
        fan-out.  ``0`` (default) runs batches serially in the calling
        thread.
    query_cache_size:
        Maximum number of ``top_k`` results kept in the engine's LRU query
        cache (``0``, the default, disables caching).  Every index change --
        ``build``, ``add_records``, ``refresh_entities``, ``remove_entity``,
        ``expire_events``, ``compact`` -- clears the cache, so cached
        results are always identical to fresh searches.

    Example
    -------
    Keyword overrides passed to the engine win over an explicit config, but
    never reset unmentioned fields, and only the *semantic* fields enter the
    fingerprint that keys caches and stamps snapshots:

    >>> from repro import EngineConfig
    >>> config = EngineConfig(num_hashes=128, batch_workers=4)
    >>> config.with_overrides(seed=9).num_hashes
    128
    >>> fast = config.with_overrides(batch_workers=0, query_cache_size=64)
    >>> fast.fingerprint() == config.fingerprint()   # performance knobs only
    True
    >>> config.with_overrides(seed=9).fingerprint() == config.fingerprint()
    False
    """

    num_hashes: int = 256
    seed: int = 0
    store_full_signatures: bool = False
    use_full_signatures: bool = False
    batch_workers: int = 0
    query_cache_size: int = 0

    def __post_init__(self) -> None:
        if self.num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {self.num_hashes}")
        if self.use_full_signatures and not self.store_full_signatures:
            raise ValueError("use_full_signatures requires store_full_signatures")
        if self.batch_workers < 0:
            raise ValueError(f"batch_workers must be >= 0, got {self.batch_workers}")
        if self.query_cache_size < 0:
            raise ValueError(f"query_cache_size must be >= 0, got {self.query_cache_size}")

    def semantic_fields(self) -> Dict[str, object]:
        """The fields that determine index contents and query results.

        Performance knobs (``batch_workers``, ``query_cache_size``) are
        excluded: they change wall-clock time, never a signature or a
        result.
        """
        return {
            "num_hashes": self.num_hashes,
            "seed": self.seed,
            "store_full_signatures": self.store_full_signatures,
            "use_full_signatures": self.use_full_signatures,
        }

    def fingerprint(self) -> str:
        """Stable SHA-256 hex digest of :meth:`semantic_fields`.

        Used to key the query cache and to stamp snapshots: two configs with
        the same fingerprint are guaranteed to produce identical indexes and
        results over the same data.
        """
        canonical = json.dumps(self.semantic_fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_overrides(self, **overrides: object) -> "EngineConfig":
        """A copy with the given fields replaced.

        Unknown field names raise ``TypeError`` (listing them); fields not
        mentioned keep their current values, so an explicitly-passed config
        is never silently reset to defaults.
        """
        valid = {field.name for field in dataclasses.fields(EngineConfig)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise TypeError(f"unknown engine options: {unknown}")
        return dataclasses.replace(self, **overrides)


class TraceQueryEngine(QueryFront):
    """End-to-end top-k query processing over a trace dataset.

    Parameters
    ----------
    dataset:
        The digital traces to index.
    measure:
        The association degree measure; defaults to the paper's
        :class:`HierarchicalADM` with ``u = v = 2`` over the dataset's depth.
    config:
        Engine knobs; individual keyword arguments (``num_hashes``, ``seed``,
        ...) are accepted as a convenience and override the config.

    Invariants
    ----------
    * :meth:`build` must run before any query or update; every maintenance
      call (:meth:`add_records`, :meth:`refresh_entities`,
      :meth:`remove_entity`, :meth:`expire_events`) leaves the index
      answering queries exactly as a from-scratch build over the current
      data would (tree *tightness* may differ; results do not).
    * Index construction is deterministic given the config and dataset, so
      two engines with equal config fingerprints over equal data return
      identical results, ties included.

    Example
    -------
    >>> from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine
    >>> hierarchy = SpatialHierarchy.regular([2, 3])     # 2-level sp-index
    >>> dataset = TraceDataset(hierarchy, horizon=24)
    >>> dataset.add_record("alice", "u2_0_0", time=9, duration=2)
    >>> dataset.add_record("bob", "u2_0_0", time=9, duration=2)
    >>> dataset.add_record("carol", "u2_1_2", time=3, duration=1)
    >>> engine = TraceQueryEngine(dataset, num_hashes=32, seed=7).build()
    >>> engine.top_k("alice", k=2).entities              # carol never co-occurs
    ['bob']
    >>> engine.add_records([PresenceInstance("carol", "u2_0_0", 9, 11)])
    ['carol']
    >>> engine.top_k("alice", k=2).entities
    ['bob', 'carol']
    """

    def __init__(
        self,
        dataset: TraceDataset,
        measure: Optional[AssociationMeasure] = None,
        config: Optional[EngineConfig] = None,
        **overrides: object,
    ) -> None:
        if config is None:
            config = EngineConfig()
        if overrides:
            # Keyword overrides win over the config's values, but fields not
            # mentioned keep whatever the explicit config carried.
            config = config.with_overrides(**overrides)
        super().__init__(config)
        self.dataset = dataset
        self.measure = measure or HierarchicalADM(num_levels=dataset.num_levels)

        self._hash_family: Optional[HierarchicalHashFamily] = None
        self._signature_computer: Optional[SignatureComputer] = None
        self._tree: Optional[MinSigTree] = None
        self._searcher: Optional[TopKSearcher] = None
        #: Wall-clock seconds spent in the last :meth:`build` call.
        self.last_build_seconds: float = 0.0
        # Set by the snapshot loader: a save of the engine while unchanged
        # since that load links the snapshot's files instead of rewriting them.
        self._snapshot_source: Optional["_SnapshotSource"] = None

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return self._tree is not None

    @property
    def hash_family(self) -> HierarchicalHashFamily:
        """The hash family (available after :meth:`build`)."""
        self._require_built()
        assert self._hash_family is not None
        return self._hash_family

    @property
    def tree(self) -> MinSigTree:
        """The MinSigTree (available after :meth:`build`)."""
        self._require_built()
        assert self._tree is not None
        return self._tree

    @property
    def searcher(self) -> TopKSearcher:
        """The top-k searcher bound to the current index."""
        self._require_built()
        assert self._searcher is not None
        return self._searcher

    def _require_built(self) -> None:
        if self._tree is None:
            raise RuntimeError("the engine index has not been built yet; call build() first")

    def build(self) -> "TraceQueryEngine":
        """Sign every entity, build the MinSigTree and compile it, from one cell table."""
        started = time.perf_counter()
        horizon = max(self.dataset.horizon, 1)
        self._hash_family = HierarchicalHashFamily(
            self.dataset.hierarchy,
            horizon=horizon,
            num_hashes=self.config.num_hashes,
            seed=self.config.seed,
        )
        self._signature_computer = SignatureComputer(self._hash_family)
        table = self.dataset.cell_table()
        signatures = self._signature_computer.bulk_signature_matrices(self.dataset, table=table)
        self._tree = MinSigTree.build(
            signatures,
            num_levels=self.dataset.num_levels,
            num_hashes=self.config.num_hashes,
            store_full_signatures=self.config.store_full_signatures,
        )
        self._searcher = TopKSearcher(
            self._tree,
            self.dataset,
            self.measure,
            self._hash_family,
            use_full_signatures=self.config.use_full_signatures,
        )
        self._searcher.refresh_compiled(table)
        self.last_build_seconds = time.perf_counter() - started
        self._invalidate_query_cache()
        return self

    def _adopt_index(self, hash_family: HierarchicalHashFamily, tree: MinSigTree) -> None:
        """Install an externally reconstructed index (the snapshot load path).

        The caller guarantees that ``tree`` was built from signatures of
        ``hash_family`` over this engine's dataset; everything downstream
        (signature computer, searcher) is wired here so updates and queries
        behave exactly as after :meth:`build`.
        """
        previous = self._searcher
        self._hash_family = hash_family
        self._signature_computer = SignatureComputer(hash_family)
        self._tree = tree
        self._searcher = TopKSearcher(
            tree,
            self.dataset,
            self.measure,
            hash_family,
            use_full_signatures=self.config.use_full_signatures,
        )
        # Re-adopting the same tree (e.g. the sharded hash-family sharing
        # pass) must not throw away an already-compiled columnar kernel or
        # a pending snapshot loader.
        if previous is not None:
            self._searcher.carry_compiled_from(previous)
        self._invalidate_query_cache()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike, extra_meta: Optional[Dict[str, object]] = None) -> Path:
        """Write the built index (and dataset) to a snapshot directory.

        See :mod:`repro.storage.snapshot` for the format; the snapshot can
        be restored with :meth:`load` in another process without re-signing.
        Saves are staged and swapped in atomically, so a crash mid-save
        never leaves a half-written snapshot behind.  ``extra_meta`` is an
        optional JSON-serialisable dict stored verbatim in the manifest
        (the serving tier's WAL position lives there).

        Example
        -------
        >>> import tempfile
        >>> from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine
        >>> hierarchy = SpatialHierarchy.regular([2, 2])
        >>> dataset = TraceDataset(hierarchy, horizon=12)
        >>> dataset.add_record("a", "u2_0_0", time=1, duration=2)
        >>> dataset.add_record("b", "u2_0_0", time=1, duration=2)
        >>> engine = TraceQueryEngine(dataset, num_hashes=16).build()
        >>> snapdir = tempfile.mkdtemp()
        >>> served = TraceQueryEngine.load(engine.save(snapdir))
        >>> served.top_k("a", k=1).items == engine.top_k("a", k=1).items
        True
        """
        from repro.storage.snapshot import save_engine_snapshot

        return save_engine_snapshot(self, path, extra_meta=extra_meta)

    @classmethod
    def load(
        cls, path: PathLike, measure: Optional["_Measure"] = None
    ) -> "TraceQueryEngine":
        """Restore a query-ready engine from a snapshot directory.

        The restored engine is bitwise-identical to the saved one: same
        signatures, tree structure, results, and orderings.  ``measure``
        overrides the serialized measure (required for custom measures that
        the snapshot registry cannot reconstruct).
        """
        from repro.storage.snapshot import load_engine_snapshot

        return load_engine_snapshot(path, measure=measure)

    def index_size_bytes(self) -> int:
        """Approximate size of the MinSigTree in bytes."""
        return self.tree.size_bytes()

    def runtime_stats(self) -> Dict[str, object]:
        """Operational counters for serving dashboards (``/v1/stats``).

        A plain JSON-serialisable dict: dataset size, index looseness
        (:attr:`MinSigTree.loose_operations` -- removals/relocations that
        left a surviving ancestor's group signature untight), and the query
        cache's counter snapshot (``None`` when caching is disabled).
        Safe to call from another thread between queries; the cache
        snapshot is internally locked.
        """
        stats: Dict[str, object] = {
            "kind": "single",
            "built": self.is_built,
            "entities": self.dataset.num_entities,
            "presences": self.dataset.num_presences,
            "loose_operations": self.tree.loose_operations if self.is_built else 0,
            "index_size_bytes": self.index_size_bytes() if self.is_built else 0,
        }
        cache = self._query_cache
        stats["cache"] = cache.stats_snapshot() if cache is not None else None
        return stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _search(
        self,
        query_entity: str,
        k: int,
        approximation: float,
        trace: Optional[SpanContext],
    ) -> TopKResult:
        """One exact search of the index; ``top_k``/``top_k_batch`` cache it."""
        return self.searcher.search(query_entity, k, approximation=approximation, trace=trace)

    # ------------------------------------------------------------------
    # Incremental maintenance (Section 4.2.3)
    # ------------------------------------------------------------------
    def _signature_matrices(self, entities: Sequence[str]) -> Dict[str, np.ndarray]:
        """Fresh signature matrices for ``entities`` from their current traces.

        Multi-entity batches go through the vectorised bulk pipeline, so a
        Figure 7.9-style update touching many entities costs a handful of
        broadcasted hash calls instead of one pass per entity; a single
        entity is signed through the per-cell cache.
        """
        assert self._signature_computer is not None
        if len(entities) > 1:
            return self._signature_computer.bulk_signature_matrices(self.dataset, entities)
        return {
            entity: self._signature_computer.signature_matrix(
                self.dataset.cell_sequence(entity)
            )
            for entity in entities
        }

    def _resign(self, entities: Sequence[str]) -> None:
        """Re-sign ``entities`` and re-insert them into the MinSigTree."""
        assert self._tree is not None
        matrices = self._signature_matrices(entities)
        for entity in entities:
            self._tree.update(entity, matrices[entity])

    def add_records(self, presences: Iterable[PresenceInstance]) -> List[str]:
        """Append new trace records and re-index the affected entities.

        New entities are inserted; existing ones are removed from their
        current leaf, re-signed, and re-inserted (the Figure 7.9 update path).
        Batches touching several entities are re-signed through the bulk
        pipeline.  Returns the list of affected entity identifiers.
        """
        self._require_built()
        # Order-preserving dedup: a dict keeps first-seen order and makes
        # membership O(1), so a batch of B presences costs O(B) instead of
        # the O(B^2) a list-membership scan would.
        affected: Dict[str, None] = {}
        for presence in presences:
            self.dataset.add_presence(presence)
            affected[presence.entity] = None
        ordered = list(affected)
        self._resign(ordered)
        self._invalidate_query_cache()
        return ordered

    def refresh_entities(self, entities: Iterable[str]) -> None:
        """Re-sign and re-insert entities whose traces changed out of band."""
        self._require_built()
        self._resign(list(entities))
        self._invalidate_query_cache()

    def remove_entity(self, entity: str) -> None:
        """Drop an entity from both the dataset and the index."""
        self._require_built()
        assert self._tree is not None
        self.dataset.remove_entity(entity)
        if entity in self._tree:
            self._tree.remove(entity)
        self._invalidate_query_cache()

    # ------------------------------------------------------------------
    # Streaming maintenance: windowed expiry and compaction
    # ------------------------------------------------------------------
    def expire_events(self, cutoff: int) -> ExpiryReport:
        """Drop every record with ``end <= cutoff`` and retract it from the index.

        The sliding-window half of the streaming subsystem (the ingest half
        is :meth:`add_records`; :class:`repro.streaming.EventIngestor` drives
        both).  Retraction is incremental where it can be exact:

        * entities whose whole trace expired are removed from the index;
        * surviving entities are re-signed from their remaining records
          through the bulk pipeline, but the tree is only touched when the
          fresh signature differs from the indexed one -- expired cells that
          never achieved a per-level minimum change nothing;
        * group-level signatures of surviving ancestor nodes are *not*
          re-tightened (they stay valid lower bounds, exactly as after
          :meth:`MinSigTree.remove`), so heavy expiry gradually weakens
          pruning without ever affecting results.  :meth:`compact` -- called
          periodically by the streaming layer -- restores full tightness.

        Returns an :class:`ExpiryReport`; when nothing expired the index and
        the query cache are untouched.
        """
        self._require_built()
        assert self._tree is not None
        removed_counts = self.dataset.expire_before(cutoff)
        report = ExpiryReport(cutoff=cutoff, expired_records=sum(removed_counts.values()))
        if not removed_counts:
            return report
        survivors = []
        for entity in removed_counts:
            if entity in self.dataset:
                survivors.append(entity)
            else:
                if entity in self._tree:
                    self._tree.remove(entity)
                report.removed_entities.append(entity)
        if survivors:
            matrices = self._signature_matrices(survivors)
            for entity in survivors:
                matrix = matrices[entity]
                if entity in self._tree and np.array_equal(
                    matrix, self._tree.signature_of(entity)
                ):
                    report.unchanged_entities.append(entity)
                else:
                    self._tree.update(entity, matrix)
                    report.resigned_entities.append(entity)
        self._invalidate_query_cache()
        return report

    def compact(self) -> "TraceQueryEngine":
        """Re-tighten every group-level signature by rebuilding the tree.

        Signatures are *not* recomputed -- the stored per-entity matrices are
        re-inserted, so compaction costs one tree construction and zero hash
        evaluations.  Useful after many :meth:`remove_entity` /
        :meth:`expire_events` calls, when routing values left loose by
        removals (see :attr:`MinSigTree.loose_operations`) have eroded
        pruning effectiveness.  Results are unchanged.
        """
        self._require_built()
        assert self._tree is not None
        assert self._searcher is not None
        self._tree.rebuild()
        # Compaction pays for the one full kernel recompile itself, so the
        # first query afterwards is served from an already-fresh kernel
        # instead of compiling again on the query path.
        self._searcher.refresh_compiled()
        self._invalidate_query_cache()
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = "built" if self.is_built else "not built"
        return (
            f"TraceQueryEngine({self.dataset.describe()}, measure={self.measure.name}, "
            f"num_hashes={self.config.num_hashes}, {built})"
        )
