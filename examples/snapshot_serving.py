#!/usr/bin/env python3
"""Snapshot-based serving: build once, cold-start instantly, shard the load.

The serving workflow behind ``repro index build`` / ``repro query --snapshot``:

1. build an engine over a synthetic city and **save** it as a snapshot,
2. **load** the snapshot the way a fresh serving process would -- no
   re-signing -- and verify the answers are identical,
3. stand up a **sharded** deployment with an LRU query cache, route some
   live updates to the owning shards, and read the cache statistics.

Run with ``PYTHONPATH=src python examples/snapshot_serving.py``.
"""

import tempfile
import time
from pathlib import Path

from repro import ShardedEngine, TraceQueryEngine
from repro.mobility.hierarchical import generate_synthetic_dataset
from repro.traces.events import PresenceInstance


def main() -> None:
    dataset, _config = generate_synthetic_dataset(num_entities=150, horizon=96, seed=11)
    print(dataset.describe())
    query = dataset.entities[0]

    # -- 1. Build once, snapshot to disk. --------------------------------
    engine = TraceQueryEngine(dataset, num_hashes=128, seed=7).build()
    workdir = Path(tempfile.mkdtemp(prefix="repro-snapshot-"))
    snapshot = engine.save(workdir / "index")
    print(f"\nbuilt in {engine.last_build_seconds * 1000:.0f} ms, "
          f"snapshot at {snapshot}")

    # -- 2. Cold-start a "serving process" from the snapshot. ------------
    started = time.perf_counter()
    served = TraceQueryEngine.load(snapshot)
    load_ms = (time.perf_counter() - started) * 1000
    original = engine.top_k(query, k=5)
    restored = served.top_k(query, k=5)
    assert restored.items == original.items, "snapshot must restore results exactly"
    print(f"cold-started from snapshot in {load_ms:.0f} ms; "
          f"top-5 for {query} identical: {restored.entities}")

    # -- 3. Sharded serving with a query cache. --------------------------
    sharded = ShardedEngine(
        served.dataset,
        num_shards=4,
        num_hashes=128,
        seed=7,
        query_cache_size=256,
    ).build()
    result = sharded.top_k(query, k=5)
    assert result.items == original.items, "sharded fan-out must merge to the same top-k"
    print(f"\n4-shard deployment built in {sharded.last_build_seconds * 1000:.0f} ms; "
          f"merged top-5 identical")

    # Repeat traffic hits the cache; updates invalidate it.
    sharded.top_k(query, k=5)
    stats = sharded.query_cache.stats
    print(f"cache after repeat query: hits={stats.hits}, misses={stats.misses}")
    base_unit = dataset.hierarchy.base_units[0]
    sharded.add_records([PresenceInstance("newcomer", base_unit, 3, 6)])
    owner = sharded.shard_of("newcomer")
    print(f"routed newcomer to shard {owner}; cache invalidated "
          f"(entries={len(sharded.query_cache)})")

    # Sharded deployments snapshot too: one directory per shard + manifest.
    sharded_snapshot = sharded.save(workdir / "sharded-index")
    reloaded = ShardedEngine.load(sharded_snapshot)
    assert reloaded.top_k(query, k=5).items == sharded.top_k(query, k=5).items
    print(f"sharded snapshot at {sharded_snapshot} restores identically")


if __name__ == "__main__":
    main()
