"""Sharded serving: one logical engine over N entity partitions.

:class:`ShardedEngine` partitions the entities of a dataset across ``N``
independent :class:`~repro.core.engine.TraceQueryEngine` shards (placed by a
stable hash of the entity identifier), builds the shards in parallel through
the bulk signature pipeline, and serves queries by fanning out over every
shard and merging a global top-k.

Correctness rests on two facts:

* every shard's hash family is constructed with the *same* seed, hash count,
  and horizon as a single engine over the whole dataset would be, so each
  entity's signature matrix is bitwise-identical to the unsharded build; and
* an exact per-shard top-k over a partition of the candidates, merged and
  truncated to ``k``, equals the exact global top-k.

The second fact is a theorem because every engine searches with an
admissible bound (the per-level Theorem 4 bound): sharded results are
*guaranteed* equal to the single engine's for every shard count (pinned by
the fuzz test in ``tests/test_sharded.py``).

Updates (``add_records`` / ``remove_entity`` / ``refresh_entities`` /
``expire_events``) are routed to the owning shard; a new entity is placed
on ``blake2b(entity) mod num_shards`` and the assignment is remembered.
Placement decides which shard does the work, not the answer.  A sharded
deployment snapshots to a directory of per-shard engine snapshots plus a
routing manifest -- see :meth:`ShardedEngine.save`.

``top_k``, ``top_k_batch`` and the result cache are the single engine's
(:class:`~repro.service.cache.QueryFront`): the sharded engine supplies
only its search -- the fan-out over the shards plus the merge -- so the
cache holds whole merged answers and every index change clears it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.engine import EngineConfig, ExpiryReport, TraceQueryEngine
from repro.core.hashing import HierarchicalHashFamily
from repro.core.query import TopKResult
from repro.measures.adm import HierarchicalADM
from repro.measures.base import AssociationMeasure
from repro.obs.trace import SpanContext
from repro.service.cache import QueryFront
from repro.service.merge import merge_topk_results
from repro.storage.snapshot import (
    SHARDED_SNAPSHOT_FORMAT,
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    _MANIFEST_NAME,
    _measure_payload,
    load_engine_snapshot,
    read_manifest,
    save_engine_snapshot,
    snapshot_staging,
)
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance

__all__ = ["SHARDED_SNAPSHOT_FORMAT", "ShardedEngine", "load_snapshot"]

PathLike = Union[str, Path]


def _hash_shard(entity: str, num_shards: int) -> int:
    """The shard a new entity goes to: a stable digest modulo the shard count.

    blake2b rather than ``hash()``: placement must agree across processes
    and Python releases (``PYTHONHASHSEED`` varies).
    """
    digest = hashlib.blake2b(entity.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class ShardedEngine(QueryFront):
    """Top-k serving over entity shards with a single-engine-equivalent API.

    Parameters
    ----------
    dataset:
        The full dataset.  It stays the routing/query substrate (query
        sequences and membership checks); per-shard copies hold only each
        shard's entities.
    measure:
        Association measure shared by every shard (defaults to the paper's
        :class:`HierarchicalADM`).
    config:
        Engine knobs, applied to every shard.  ``query_cache_size`` applies
        to the *sharded* engine's own result cache (shards run uncached --
        caching twice would only burn memory); ``batch_workers`` sets the
        default fan-out of :meth:`top_k_batch`.
    num_shards:
        Number of entity partitions (>= 1).  A new entity goes to shard
        ``blake2b(entity) mod num_shards``.

    Invariants
    ----------
    * Every shard's hash family is constructed exactly as an unsharded
      engine's would be, so per-entity signatures are bitwise-identical to
      the single-engine build for every shard count.
    * Updates route to the owning shard; the routing dataset and the shard
      datasets never disagree about an entity's trace.
    * The merged top-k equals the single engine's for every shard count.

    Example
    -------
    >>> from repro import ShardedEngine, SpatialHierarchy, TraceDataset
    >>> hierarchy = SpatialHierarchy.regular([2, 2])
    >>> dataset = TraceDataset(hierarchy, horizon=24)
    >>> dataset.add_record("a", "u2_0_0", time=2, duration=3)
    >>> dataset.add_record("b", "u2_0_0", time=2, duration=3)
    >>> dataset.add_record("c", "u2_1_1", time=9, duration=1)
    >>> fleet = ShardedEngine(dataset, num_shards=2, num_hashes=16, seed=1).build()
    >>> fleet.top_k("a", k=1).entities       # fan out over both shards, merge
    ['b']
    >>> fleet.shard_of("a") in (0, 1)
    True
    """

    def __init__(
        self,
        dataset: TraceDataset,
        measure: Optional[AssociationMeasure] = None,
        config: Optional[EngineConfig] = None,
        num_shards: int = 2,
        **overrides: object,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        super().__init__(config)
        self.dataset = dataset
        self.measure = measure or HierarchicalADM(num_levels=dataset.num_levels)
        self._num_shards = int(num_shards)
        self._shard_of: Dict[str, int] = {}
        self._shards: List[TraceQueryEngine] = []
        #: Wall-clock seconds spent in the last :meth:`build` call.
        self.last_build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of entity partitions."""
        return self._num_shards

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` (or :meth:`load`) has produced the shards."""
        return bool(self._shards)

    @property
    def shards(self) -> Tuple[TraceQueryEngine, ...]:
        """The per-shard engines (available after :meth:`build`)."""
        self._require_built()
        return tuple(self._shards)

    @property
    def hash_family(self) -> HierarchicalHashFamily:
        """The hash family every shard shares (see :meth:`_share_hash_family`)."""
        self._require_built()
        return self._shards[0].hash_family

    @property
    def num_entities(self) -> int:
        """Number of entities across all shards."""
        return self.dataset.num_entities

    def shard_of(self, entity: str) -> int:
        """The shard currently owning ``entity``."""
        try:
            return self._shard_of[entity]
        except KeyError:
            raise KeyError(f"entity {entity!r} is not assigned to any shard") from None

    def index_size_bytes(self) -> int:
        """Approximate summed MinSigTree size across shards."""
        self._require_built()
        return sum(shard.index_size_bytes() for shard in self._shards)

    def runtime_stats(self) -> Dict[str, object]:
        """Operational counters for serving dashboards (``/v1/stats``).

        The sharded counterpart of
        :meth:`~repro.core.engine.TraceQueryEngine.runtime_stats`: per-shard
        entity counts, the summed loose-operation counter (retraction
        looseness across every shard's tree), and the deployment-level
        cache snapshot (shards run uncached by construction).
        """
        built = self.is_built
        stats: Dict[str, object] = {
            "kind": "sharded",
            "built": built,
            "entities": self.dataset.num_entities,
            "presences": self.dataset.num_presences,
            "num_shards": self.num_shards,
            "shard_sizes": (
                [shard.dataset.num_entities for shard in self._shards] if built else []
            ),
            "loose_operations": (
                sum(shard.tree.loose_operations for shard in self._shards) if built else 0
            ),
            "index_size_bytes": self.index_size_bytes() if built else 0,
        }
        cache = self._query_cache
        stats["cache"] = cache.stats_snapshot() if cache is not None else None
        return stats

    def _require_built(self) -> None:
        if not self._shards:
            raise RuntimeError("the sharded index has not been built yet; call build() first")

    def _assign(self, entity: str) -> int:
        shard = self._shard_of.get(entity)
        if shard is None:
            shard = _hash_shard(entity, self._num_shards)
            self._shard_of[entity] = shard
        return shard

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def build(self, workers: Optional[int] = None) -> "ShardedEngine":
        """Partition the dataset and build every shard's index.

        Shards build concurrently on a thread pool (``workers`` defaults to
        one thread per shard, capped at the CPU count); each shard routes its
        signatures through the bulk pipeline exactly like a single engine.
        Every shard dataset is pinned to the full dataset's horizon so all
        hash families -- and therefore all signatures -- are identical to an
        unsharded build.
        """
        started = time.perf_counter()
        horizon = max(self.dataset.horizon, 1)
        hierarchy = self.dataset.hierarchy
        shard_datasets = [
            TraceDataset(hierarchy, horizon=horizon) for _ in range(self.num_shards)
        ]
        for entity in self.dataset.entities:
            shard_datasets[self._assign(entity)].restore_trace(
                entity, self.dataset.trace(entity)
            )
        shard_config = self.config.with_overrides(query_cache_size=0, batch_workers=0)
        self._shards = [
            TraceQueryEngine(shard_dataset, measure=self.measure, config=shard_config)
            for shard_dataset in shard_datasets
        ]
        if workers is None:
            workers = min(self.num_shards, os.cpu_count() or 1)
        if workers <= 1 or self.num_shards == 1:
            for shard in self._shards:
                shard.build()
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(lambda shard: shard.build(), self._shards))
        self._share_hash_family()
        self.last_build_seconds = time.perf_counter() - started
        self._invalidate_query_cache()
        return self

    def _share_hash_family(self) -> None:
        """Point every shard at one hash family (and one cell cache).

        All shard families are constructed identically (same seed, hash
        count, horizon, hierarchy), so sharing the first shard's instance is
        purely an optimisation: query cells are hashed once instead of once
        per shard, and the cell cache is stored once instead of N times.
        """
        if len(self._shards) <= 1:
            return
        shared = self._shards[0].hash_family
        for shard in self._shards[1:]:
            shard._adopt_index(shared, shard.tree)

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
        """Fan one query out over every shard and merge the global top-k.

        Results (and orderings) match a single engine over the same
        dataset.  The merged :class:`QueryStats` aggregate the per-shard
        counters (populations and work counters sum, early termination is
        "any").  ``trace`` attaches per-shard ``shard.search`` spans (each
        nesting the kernel-stage spans) and a ``kernel.merge`` span.
        """
        self._require_built()
        query_sequence = self.dataset.cell_sequence(query_entity)
        shard_results = []
        for shard_id, shard in enumerate(self._shards):
            shard_span = (
                trace.begin("shard.search", shard=shard_id) if trace is not None else None
            )
            shard_results.append(
                shard.searcher.search(
                    query_entity,
                    k,
                    approximation=approximation,
                    query_sequence=query_sequence,
                    trace=trace.under(shard_span) if shard_span is not None else None,
                )
            )
            if shard_span is not None:
                shard_span.end()
        merge_span = trace.begin("kernel.merge") if trace is not None else None
        # The one merge/tie-break shared with the cluster coordinator, so
        # in-process and multi-node deployments rank identically.
        merged = merge_topk_results(query_entity, shard_results, k)
        if merge_span is not None:
            merge_span.end(shards=len(shard_results), results=len(merged.items))
        return merged

    # ------------------------------------------------------------------
    # Incremental maintenance (routed to the owning shard)
    # ------------------------------------------------------------------
    def add_records(self, presences: Iterable[PresenceInstance]) -> List[str]:
        """Append records, routing each entity's batch to its owning shard.

        New entities go to their hash shard; existing ones go to their
        recorded shard.  Returns the affected entities in first-seen
        order, exactly like the single-engine API.
        """
        self._require_built()
        affected: Dict[str, None] = {}
        per_shard: Dict[int, List[PresenceInstance]] = {}
        for presence in presences:
            self.dataset.add_presence(presence)
            affected[presence.entity] = None
            per_shard.setdefault(self._assign(presence.entity), []).append(presence)
        for shard_id, batch in per_shard.items():
            self._shards[shard_id].add_records(batch)
        self._invalidate_query_cache()
        return list(affected)

    def refresh_entities(self, entities: Iterable[str]) -> None:
        """Re-sign entities whose traces changed out of band, shard by shard.

        The router dataset is the source of truth: each owning shard's copy
        of the entity's trace is replaced before re-signing.
        """
        self._require_built()
        per_shard: Dict[int, List[str]] = {}
        for entity in entities:
            per_shard.setdefault(self.shard_of(entity), []).append(entity)
        for shard_id, shard_entities in per_shard.items():
            shard = self._shards[shard_id]
            for entity in shard_entities:
                shard.dataset.replace_trace(entity, self.dataset.trace(entity))
            shard.refresh_entities(shard_entities)
        self._invalidate_query_cache()

    def remove_entity(self, entity: str) -> None:
        """Drop an entity from its shard and from the routing dataset."""
        self._require_built()
        shard_id = self._shard_of.get(entity)
        if shard_id is None or entity not in self.dataset:
            raise KeyError(f"unknown entity {entity!r}")
        self._shards[shard_id].remove_entity(entity)
        del self._shard_of[entity]
        self.dataset.remove_entity(entity)
        self._invalidate_query_cache()

    # ------------------------------------------------------------------
    # Streaming maintenance: windowed expiry and compaction
    # ------------------------------------------------------------------
    def expire_events(self, cutoff: int) -> ExpiryReport:
        """Expire ``end <= cutoff`` records from every shard and the router.

        Each shard retracts its own copy incrementally (see
        :meth:`TraceQueryEngine.expire_events`); the routing dataset and
        table are kept in lockstep.  Returns the aggregated
        :class:`ExpiryReport`; when nothing expired the index and the query
        cache are untouched.
        """
        self._require_built()
        self.dataset.expire_before(cutoff)
        report = ExpiryReport(cutoff=cutoff)
        for shard in self._shards:
            report.absorb(shard.expire_events(cutoff))
        for entity in report.removed_entities:
            self._shard_of.pop(entity, None)
        if report.affected_entities:
            self._invalidate_query_cache()
        return report

    def compact(self) -> "ShardedEngine":
        """Re-tighten every shard's tree (zero hash evaluations).

        See :meth:`TraceQueryEngine.compact`.
        """
        self._require_built()
        for shard in self._shards:
            shard.compact()
        self._invalidate_query_cache()
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike, extra_meta: Optional[Dict[str, object]] = None) -> Path:
        """Write per-shard snapshots plus a routing manifest; returns the dir.

        Layout: ``manifest.json`` (format, shard count, shard directory
        names, config) and one engine snapshot per shard under
        ``shard-00/``, ``shard-01``, ...  Restorable with :meth:`load` in
        another process.  ``extra_meta`` is stored verbatim under the
        manifest's ``"extra"`` key, mirroring
        :func:`repro.storage.snapshot.save_engine_snapshot`.
        """
        self._require_built()
        # Fail on an unserializable measure before any I/O happens.
        _measure_payload(self.measure)
        final = Path(path)
        # The whole deployment is staged and swapped in atomically: a failed
        # shard write leaves the previous snapshot untouched, and no stale
        # shard directories can survive an overwrite.
        with snapshot_staging(final) as directory:
            shard_names = []
            for shard_id, shard in enumerate(self._shards):
                name = f"shard-{shard_id:02d}"
                save_engine_snapshot(shard, directory / name)
                shard_names.append(name)
            manifest = {
                "format": SHARDED_SNAPSHOT_FORMAT,
                "format_version": SNAPSHOT_FORMAT_VERSION,
                "num_shards": self.num_shards,
                "shards": shard_names,
                "config": {
                    "query_cache_size": self.config.query_cache_size,
                    "batch_workers": self.config.batch_workers,
                },
                "fingerprint": self.config.fingerprint(),
            }
            if extra_meta is not None:
                manifest["extra"] = dict(extra_meta)
            with open(directory / _MANIFEST_NAME, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2)
        return final

    @classmethod
    def load(
        cls,
        path: PathLike,
        measure: Optional[AssociationMeasure] = None,
        mmap_columnar: bool = False,
    ) -> "ShardedEngine":
        """Restore a sharded deployment saved with :meth:`save`.

        Every shard cold-starts from its engine snapshot (no re-signing);
        the routing table is rebuilt from shard membership, so every stored
        entity keeps the shard it was saved on, whatever rule placed it.
        Only entities added after the load are hashed to a shard.  The
        manifest must name exactly the ``shard-NN`` directories :meth:`save`
        writes, so a manifest cannot pull shards in from outside its
        directory.  The router dataset is reassembled shard by shard, so its
        entity iteration order may differ from the original -- query results
        are unaffected.  ``mmap_columnar`` is forwarded to every shard's
        :func:`~repro.storage.snapshot.load_engine_snapshot` (zero-copy
        compiled arrays for multi-process serving workers).
        """
        directory = Path(path)
        manifest = read_manifest(directory)
        if manifest.get("format") != SHARDED_SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"{directory} holds a {manifest.get('format')!r} snapshot; "
                "load it with TraceQueryEngine.load()"
            )
        num_shards = manifest.get("num_shards")
        shard_names = manifest.get("shards")
        if type(num_shards) is not int or num_shards < 1:
            raise SnapshotError(
                f"invalid sharded snapshot manifest in {directory}: num_shards must be "
                f"an integer >= 1, got {num_shards!r}"
            )
        if shard_names != [f"shard-{index:02d}" for index in range(num_shards)]:
            raise SnapshotError(
                f"invalid sharded snapshot manifest in {directory}: shards must be "
                f"shard-00 ... shard-{num_shards - 1:02d} for {num_shards} shards, "
                f"got {shard_names!r}"
            )
        shard_engines = [
            load_engine_snapshot(directory / name, measure=measure, mmap_columnar=mmap_columnar)
            for name in shard_names
        ]
        # Every shard must carry the deployment's config identity: a shard
        # directory swapped in from a different deployment fails here
        # instead of serving with inconsistent signatures.
        deployment_fingerprint = manifest.get("fingerprint")
        for name, shard in zip(shard_names, shard_engines):
            if shard.config.fingerprint() != deployment_fingerprint:
                raise SnapshotError(
                    f"shard {name} in {directory} was built with a different engine "
                    "config than the deployment manifest records; the snapshot mixes "
                    "shards from different builds"
                )

        first = shard_engines[0]
        router = TraceDataset(
            first.dataset.hierarchy,
            horizon=first.dataset.explicit_horizon,
        )
        shard_of: Dict[str, int] = {}
        for shard_id, shard in enumerate(shard_engines):
            for entity in shard.dataset.entities:
                if entity in shard_of:
                    raise SnapshotError(
                        f"entity {entity!r} appears in shard {shard_of[entity]} and "
                        f"shard {shard_id} of {directory}; the snapshot mixes shards "
                        "from different builds"
                    )
                shard_of[entity] = shard_id
            # Shares the shard's unbuilt traces: loading builds no record.
            router.restore_from(shard.dataset)

        try:
            config = first.config.with_overrides(**manifest.get("config", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"invalid sharded snapshot manifest in {directory}: {exc}"
            ) from exc
        engine = cls(router, measure=first.measure, config=config, num_shards=num_shards)
        engine._shards = shard_engines
        engine._shard_of = shard_of
        engine._share_hash_family()
        return engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = "built" if self.is_built else "not built"
        return f"ShardedEngine({self.dataset.describe()}, shards={self.num_shards}, {built})"


def load_snapshot(
    path: PathLike, mmap_columnar: bool = False
) -> Union[TraceQueryEngine, ShardedEngine]:
    """Load a single or a sharded snapshot directory, told apart by its
    manifest.  ``mmap_columnar`` maps the compiled arrays read-only (see
    :func:`~repro.storage.snapshot.load_engine_snapshot`)."""
    if read_manifest(path).get("format") == SHARDED_SNAPSHOT_FORMAT:
        return ShardedEngine.load(path, mmap_columnar=mmap_columnar)
    return load_engine_snapshot(path, mmap_columnar=mmap_columnar)
