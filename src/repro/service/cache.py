"""A size-bounded LRU cache for top-k query results.

Serving workloads are heavily skewed -- a few query entities account for
most traffic -- so an engine-side result cache turns repeat queries into
dictionary lookups.  Correctness is kept trivial: cache keys include the
engine's configuration fingerprint, and every mutation path invalidates
eagerly, so a cached result is always identical to what a fresh search
would return.  Invalidation has two granularities:

* the single engine clears wholesale (:meth:`QueryResultCache.clear`) on
  every mutation -- one index, so everything it cached is suspect;
* the sharded engine caches *per-shard partial* results and uses
  :meth:`QueryResultCache.invalidate_where` to drop only the entries whose
  shard (or query entity) a streamed update touched -- see
  :mod:`repro.service.sharded`.

**Thread-safety contract** (audited for the serving daemon's request
coalescer, where cache reads/writes race handler threads, the dispatcher
thread, and the ingest path):

* every mutation of the recency list *and* of the :class:`CacheStats`
  counters happens under the cache lock;
* ``fetch_or_compute`` runs ``compute`` outside the lock (searches are
  slow) and tolerates concurrent misses -- the last put wins, which is
  correct because results are deterministic;
* values are copied on hit and on put, so no caller ever holds a reference
  into the cache;
* readers (``__len__``, ``__contains__``, :meth:`QueryResultCache.keys`,
  :meth:`QueryResultCache.stats_snapshot`) also take the lock, so a stats
  endpoint can never observe a half-updated counter pair (e.g. hits
  incremented but lookups not yet reflecting it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Tuple, TypeVar

__all__ = ["CacheStats", "QueryResultCache"]

#: Anything with a ``copy()`` returning an independent instance (TopKResult).
_CopyableT = TypeVar("_CopyableT")


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

        Copying on every hit -- not only inside :meth:`fetch_or_compute` --
        is what makes the module-level copy-on-hit contract hold for direct
        callers too: a caller mutating the returned result can never poison
        later hits.  The copy happens outside the lock (it touches only the
        caller's value, not the recency list).
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
        """Drop every entry (the wholesale mutation-path invalidation hook)."""
        with self._lock:
            self._entries.clear()
            self.stats.invalidations += 1

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop exactly the entries whose key satisfies ``predicate``.

        The selective counterpart of :meth:`clear`, used by the sharded
        engine's streaming-update path: an update routed to one shard only
        drops the cache entries that shard (or the updated entities) could
        have influenced, leaving the rest of a warm cache intact.

        ``predicate`` runs under the cache lock -- it must be cheap and must
        not call back into the cache.  Returns the number of entries
        dropped; an invalidation event is counted only when something was
        actually dropped.
        """
        with self._lock:
            doomed: List[Hashable] = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            if doomed:
                self.stats.invalidations += 1
            return len(doomed)

    def fetch_or_compute(self, key: Hashable, compute: Callable[[], _CopyableT]) -> _CopyableT:
        """The cache-protocol used by every query path: copy-on-hit, copy-on-put.

        A hit returns a *copy* of the stored value (:meth:`get` copies), and
        a computed value is stored as a *copy* -- so a caller mutating its
        result can never poison later hits.  ``compute`` runs outside the
        lock (searches are slow); concurrent misses on the same key both
        compute and the last put wins, which is safe because results are
        deterministic.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        value = compute()
        self.put(key, value.copy())
        return value

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
