"""The query front both engines share, and its size-bounded LRU result cache.

Serving workloads are heavily skewed -- a few query entities account for
most traffic -- so an engine-side result cache turns repeat queries into
dictionary lookups.  :class:`QueryFront` is the one implementation of
``top_k``, ``top_k_batch`` and the cache's lifecycle; the single engine
(:class:`~repro.core.engine.TraceQueryEngine`) and the sharded engine
(:class:`~repro.service.sharded.ShardedEngine`) mix it in and supply only
their exact search.  Correctness is kept trivial: keys are
``(query entity, k, approximation, config fingerprint)``, entries hold
whole answers, and every index change clears the cache
(:meth:`QueryResultCache.clear`), so a cached result is always identical to
what a fresh search would return.

**Thread-safety contract** (audited for the serving daemon's request
coalescer, where cache reads/writes race handler threads, the dispatcher
thread, and the ingest path):

* every mutation of the recency list *and* of the :class:`CacheStats`
  counters happens under the cache lock;
* :class:`QueryFront` runs the search between ``get`` and ``put``, outside
  the lock (searches are slow), and tolerates concurrent misses -- the
  last put wins, which is correct because results are deterministic;
* values are copied on hit and on put, so no caller ever holds a reference
  into the cache;
* readers (``__len__``, ``__contains__``, :meth:`QueryResultCache.keys`,
  :meth:`QueryResultCache.stats_snapshot`) also take the lock, so a stats
  endpoint can never observe a half-updated counter pair (e.g. hits
  incremented but lookups not yet reflecting it).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Tuple

from repro.core.query import BatchTopKResult, TopKResult, run_query_batch, shared_searches
from repro.obs.trace import SpanContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import EngineConfig

__all__ = ["CacheStats", "QueryFront", "QueryResultCache"]


class CacheStats:
    """Hit/miss/eviction counters of one :class:`QueryResultCache`."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`QueryResultCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


class QueryResultCache:
    """An LRU map from query keys to results, bounded by entry count.

    Parameters
    ----------
    max_entries:
        Maximum number of results retained; the least-recently-*used* entry
        is evicted when a put would exceed it.  Must be >= 1 (a size-0 cache
        is expressed by not constructing one -- see
        ``EngineConfig.query_cache_size``).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        # Batch queries consult the cache from worker threads; a plain
        # lock keeps the recency list and counters coherent under fan-out.
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> Optional[object]:
        """A *copy* of the cached value, refreshed to most-recently-used, or ``None``.

        Copying on every hit is what makes the module-level copy-on-hit
        contract hold for every caller: a caller mutating the returned
        result can never poison later hits.  The copy happens outside the
        lock (it touches only the caller's value, not the recency list).
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return value.copy() if hasattr(value, "copy") else value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the invalidation every index change calls)."""
        with self._lock:
            self._entries.clear()
            self.stats.invalidations += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[Hashable, ...]:
        """Current keys, LRU first (diagnostics and tests)."""
        with self._lock:
            return tuple(self._entries)

    def stats_snapshot(self) -> dict:
        """A coherent plain-dict copy of the counters, taken under the lock.

        This is the read path of the serving daemon's ``/v1/stats``
        endpoint: :attr:`stats` itself is mutated under the lock, so
        reading its fields individually from another thread could observe
        a torn pair (hits bumped, lookups not yet).  The snapshot cannot.
        """
        with self._lock:
            stats = self.stats
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryResultCache(entries={len(self)}/{self.max_entries}, {self.stats!r})"


class QueryFront:
    """``top_k``, ``top_k_batch`` and the result cache, written once for both engines.

    An engine calls ``QueryFront.__init__`` with its final config, calls
    :meth:`_invalidate_query_cache` after every index change, and supplies

    * ``_search(query_entity, k, approximation, trace)`` -- one exact,
      uncached search (the single engine's ``searcher.search``; the sharded
      engine's fan-out over its shards plus the merge);
    * ``dataset`` and ``hash_family`` -- the substrate
      :func:`~repro.core.query.run_query_batch` pre-hashes a batch's
      query cells into;
    * ``_require_built()``.
    """

    def __init__(self, config: "EngineConfig") -> None:
        self.config = config
        # The config's semantic fields are fixed for the engine's lifetime;
        # hash them once so a cache key on the query hot path costs a tuple
        # build, not a SHA-256.
        self._config_fingerprint = config.fingerprint()
        self._query_cache: Optional[QueryResultCache] = (
            QueryResultCache(config.query_cache_size) if config.query_cache_size > 0 else None
        )

    def _search(
        self,
        query_entity: str,
        k: int,
        approximation: float,
        trace: Optional[SpanContext],
    ) -> TopKResult:
        raise NotImplementedError

    def _query_cache_key(self, query_entity: str, k: int, approximation: float) -> tuple:
        return (query_entity, k, approximation, self._config_fingerprint)

    def _lookup(
        self,
        cache: QueryResultCache,
        query_entity: str,
        k: int,
        approximation: float,
        trace: Optional[SpanContext],
    ) -> Optional[TopKResult]:
        """One cache lookup, spanned as ``cache.lookup`` when traced."""
        lookup_span = trace.begin("cache.lookup") if trace is not None else None
        cached = cache.get(self._query_cache_key(query_entity, k, approximation))
        if lookup_span is not None:
            lookup_span.end(hit=cached is not None)
        return cached

    def top_k(
        self,
        query_entity: str,
        k: int = 10,
        approximation: float = 0.0,
        trace: Optional[SpanContext] = None,
    ) -> TopKResult:
        """Return the ``k`` entities most associated with ``query_entity``.

        ``approximation`` > 0 enables approximate top-k with an additive
        guarantee (see :meth:`repro.core.query.TopKSearcher.search`).

        With ``EngineConfig.query_cache_size > 0`` repeated queries are
        served from an LRU cache: one lookup per call, and a miss searches
        and stores a copy of the answer.

        ``trace`` (a :class:`repro.obs.trace.SpanContext`, default
        ``None``) attaches a ``cache.lookup`` span (when caching) and the
        search's spans to the query; it never changes the result.
        """
        cache = self._query_cache
        if cache is None:
            return self._search(query_entity, k, approximation, trace)
        result = self._lookup(cache, query_entity, k, approximation, trace)
        if result is None:
            result = self._search(query_entity, k, approximation, trace)
            cache.put(self._query_cache_key(query_entity, k, approximation), result.copy())
        return result

    def top_k_batch(
        self,
        query_entities: Sequence[str],
        k: int = 10,
        workers: Optional[int] = None,
        approximation: float = 0.0,
        traces: Optional[Sequence[Optional[SpanContext]]] = None,
    ) -> BatchTopKResult:
        """Answer a batch of top-k queries and return the aggregate report.

        Queries already cached are answered first, with the same lookup
        :meth:`top_k` makes; the misses run through
        :func:`~repro.core.query.run_query_batch`, which hashes the union of
        their ST-cells once and -- when ``workers`` (or the config's
        ``batch_workers``) exceeds 1 -- fans them out over a thread pool.
        A repeated entity is searched once (an untraced repeat shares the
        first untraced search, :func:`~repro.core.query.shared_searches`)
        and every repeat gets its own copy of the result.  Results are
        identical to calling :meth:`top_k` per entity.

        ``traces`` is aligned with ``query_entities``; non-``None`` entries
        receive per-query cache and search spans.  Results are unaffected.
        """
        self._require_built()

        def run(
            entities: Sequence[str], entity_traces: Optional[Sequence[Optional[SpanContext]]]
        ) -> BatchTopKResult:
            # A repeated entity is searched once; each repeat gets a copy.
            owners = shared_searches(entities, entity_traces)
            searched = sorted(set(owners))
            batch = run_query_batch(
                lambda entity, trace: self._search(entity, k, approximation, trace),
                [entities[position] for position in searched],
                self.dataset,
                self.hash_family,
                self.config.batch_workers if workers is None else int(workers),
                None if entity_traces is None else [entity_traces[p] for p in searched],
            )
            found = dict(zip(searched, batch.results))
            batch.results = [
                found[owner] if owner == position else found[owner].copy()
                for position, owner in enumerate(owners)
            ]
            return batch

        cache = self._query_cache
        if cache is None:
            return run(query_entities, traces)
        started = time.perf_counter()
        results: List[Optional[TopKResult]] = []
        miss_positions: List[int] = []
        for position, query_entity in enumerate(query_entities):
            trace = traces[position] if traces is not None else None
            cached = self._lookup(cache, query_entity, k, approximation, trace)
            results.append(cached)
            if cached is None:
                miss_positions.append(position)
        workers_used = warmed = 0
        if miss_positions:
            batch = run(
                [query_entities[position] for position in miss_positions],
                [traces[position] for position in miss_positions] if traces is not None else None,
            )
            for position, result in zip(miss_positions, batch.results):
                results[position] = result
                cache.put(
                    self._query_cache_key(query_entities[position], k, approximation),
                    result.copy(),
                )
            workers_used, warmed = batch.workers, batch.warmed_cells
        return BatchTopKResult(
            results=results,
            wall_seconds=time.perf_counter() - started,
            workers=workers_used,
            warmed_cells=warmed,
        )

    @property
    def query_cache(self) -> Optional[QueryResultCache]:
        """The LRU query cache, or ``None`` when caching is disabled."""
        return self._query_cache

    def configure_query_cache(self, size: int) -> None:
        """Enable, resize, or disable (``size=0``) the query cache.

        The serving layer's runtime hook (``repro serve --cache N``): the
        constructor fixes the cache from ``EngineConfig.query_cache_size``,
        but a snapshot-loaded engine inherits the snapshot's config, and an
        operator may want a different cache for the serving workload.
        Replacing the cache starts it empty, which is trivially consistent.
        """
        if size < 0:
            raise ValueError(f"query cache size must be >= 0, got {size}")
        self.config = self.config.with_overrides(query_cache_size=size)
        self._query_cache = QueryResultCache(size) if size > 0 else None

    def _invalidate_query_cache(self) -> None:
        if self._query_cache is not None:
            self._query_cache.clear()
