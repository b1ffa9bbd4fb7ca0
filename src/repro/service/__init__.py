"""Serving subsystem: sharded engines, the top-k merge, result caching.

This package turns the single in-memory :class:`~repro.core.engine.TraceQueryEngine`
into a servable deployment:

* :mod:`~repro.service.merge` -- the deterministic top-k merge shared by
  the in-process sharded engine and the cluster coordinator;
* :mod:`~repro.service.sharded` -- :class:`ShardedEngine`, which places
  each entity on a shard by a stable hash of its identifier, builds the N
  shards in parallel, routes updates to the owning shard, and
  merges per-shard top-k results into exact global answers;
* :mod:`~repro.service.cache` -- ``QueryFront``, the one ``top_k`` /
  ``top_k_batch`` both engines run, and its size-bounded LRU result cache
  (``EngineConfig.query_cache_size``).

Durable index state lives one layer down, in
:mod:`repro.storage.snapshot`; ``ShardedEngine.save``/``load`` compose the
two (per-shard snapshots plus a routing manifest).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.cache": ["CacheStats", "QueryResultCache"],
        "repro.service.merge": ["merge_topk_items", "merge_topk_payloads", "merge_topk_results"],
        "repro.service.sharded": ["ShardedEngine"],
    },
)
